"""Pair verification, transforms, limit identities, and chain parsing."""

import hashlib
import random
import re
from fractions import Fraction
from functools import lru_cache

import pytest

from helpers import empty_tables
from qident.bailey import (
    _inv_table,
    _kernel_table,
    ROWS_KEPT,
    DJK,
    TRANSFORMS,
    DJK_LIMIT,
    GENERAL,
    S1,
    S3,
    S5,
    BUILTIN_NAMES,
    BaileyPair,
    TransformStep,
    apply_transform,
    builtin_pair,
    chain,
    limit_identity,
    pairs_equal,
    term,
    unit_pair,
    verify_pair,
)
from qident.catalog import parse_chain, run_chain
from qident.products import (
    J,
    PochRow,
    eval_product,
    inv_poch_table,
)
from qident.series import (
    LatticeError,
    Mismatch,
    Monomial,
    TruncationError,
    QSeries,
    compare_up_to,
    dump,
    equal_up_to,
    exp_num,
    invert_unit,
    monomial_series,
    qmono,
    substitute_power,
)

HALF = Fraction(1, 2)
D = 4


# -- pair verification ---------------------------------------------------------


def test_unit_pair_relation_direct():
    # beta_n must be exactly 1/((q;q)_n (aq;q)_n) when alpha is a delta.
    for a in (Monomial(1, 0), qmono(1)):
        p = unit_pair(a)
        aq = Monomial(a.coeff, a.exp + 1)
        tq = inv_poch_table(qmono(1), 1, 6, 30, D)
        taq = inv_poch_table(aq, 1, 6, 30, D)
        for n in range(7):
            assert equal_up_to(p.beta(n, Fraction(30), D), tq[n] * taq[n], 30)
        assert verify_pair(p, 6, 30).ok


@pytest.mark.parametrize("name", sorted(BUILTIN_NAMES))
def test_builtin_pairs_verify(name):
    rep = verify_pair(builtin_pair(name), 25, 60)
    assert rep.ok, f"{name} fails at n={rep.failures}"


def test_builtin_pair_alias_and_unknown():
    assert builtin_pair("G1*").name == builtin_pair("G1star").name
    with pytest.raises(ValueError):
        builtin_pair("G4")


@pytest.mark.parametrize("name", sorted(BUILTIN_NAMES))
@pytest.mark.parametrize("den", [0, -4])
def test_builtin_generators_refuse_a_lattice_denominator_below_1(name, den):
    # alpha_0 builds its series with no exponent to convert, so the series
    # itself must refuse the lattice, not return a series that cannot print
    pair = builtin_pair(name)
    for gen in (pair.alpha, pair.beta):
        with pytest.raises(LatticeError) as info:
            gen(0, 5, den)
        assert str(info.value) == \
            f"lattice denominator must be at least 1, got {den}"


def test_closed_form_alpha_sum_matches_beta():
    # Sum over i of (-1)^i q^(3i^2/4 - i/4) (1-q^(2i+1)) / ((1-q)(q^2;q)_{k+i}
    # (q;q)_{k-i}) against 1/((-q^(1/2);q)_k (q^2;q^2)_k), for k <= 25.
    order = Fraction(60)
    k_max = 25
    t_q2q = inv_poch_table(qmono(2), 1, 2 * k_max, order, D)
    t_q = inv_poch_table(qmono(1), 1, k_max, order, D)
    t_half = inv_poch_table(Monomial(-1, HALF), 1, k_max, order, D)
    t_sq = inv_poch_table(qmono(2), 2, k_max, order, D)
    one_minus_q = QSeries.from_terms([(0, 1), (1, -1)], den=D)
    inv_1mq = invert_unit(one_minus_q + QSeries(D, {}, exp_num(order, D)),
                          order)
    for k in range(k_max + 1):
        acc = QSeries(D, {}, exp_num(order, D))
        for i in range(k + 1):
            head = QSeries.from_terms(
                [(Fraction(3 * i * i - i, 4), (-1) ** i),
                 (Fraction(3 * i * i - i, 4) + 2 * i + 1, -((-1) ** i))],
                den=D)
            acc = acc + head * inv_1mq * t_q2q[k + i] * t_q[k - i]
        assert equal_up_to(acc, t_half[k] * t_sq[k], order), f"k={k}"


def test_verify_pair_reports_first_bad_index_and_exponent():
    g1 = builtin_pair("G1")
    bump = monomial_series(qmono(3), den=D)

    def bad_beta(n, order, den):
        b = g1.beta(n, order, den)
        return b + bump.truncated(order) if n == 2 else b

    p = BaileyPair(a=g1.a, alpha=g1.alpha, beta=bad_beta, name="bad")
    rep = verify_pair(p, 4, 20)
    assert not rep.ok
    assert rep.failures == [2]
    mism = dict(rep.results)[2]
    assert mism.exponent == 3


def test_verify_pair_nonunit_relative_parameter():
    # a = q^(-1) makes (aq;q) start with a vanishing factor.
    with pytest.raises(ValueError):
        verify_pair(unit_pair(Monomial(1, -1)), 3, 10)


def test_negative_index_bound_is_rejected():
    g1 = builtin_pair("G1")
    with pytest.raises(ValueError, match="n_max"):
        verify_pair(g1, -1, 5)
    with pytest.raises(ValueError, match="n_max"):
        pairs_equal(g1, g1, -2, 5)


@pytest.mark.parametrize("check", [
    lambda g1: verify_pair(g1, 3, -1),
    lambda g1: pairs_equal(g1, g1, 3, -1),
    lambda g1: limit_identity(g1, -1),
], ids=["verify_pair", "pairs_equal", "limit_identity"])
def test_entry_points_refuse_a_negative_order(check):
    with pytest.raises(ValueError, match="nonnegative"):
        check(builtin_pair("G1"))


def test_pairs_equal_and_mismatch():
    lim = chain(builtin_pair("G1star"), [DJK_LIMIT(Monomial(1, Fraction(3, 2)))])
    assert pairs_equal(lim, builtin_pair("G3"), 20, 50) is None
    diff = pairs_equal(builtin_pair("G1"), builtin_pair("G3"), 5, 20)
    assert diff is not None
    n, side, mism = diff
    assert side in ("alpha", "beta") and n >= 0 and mism is not None


def test_pairs_equal_reports_where_the_relative_parameters_differ():
    # a1 = 1 and a2 = q differ first at q^0, where a2 has no term
    assert pairs_equal(builtin_pair("G1"), builtin_pair("G2"), 2, 5) == \
        (0, "a", Mismatch(0, 1, 0))
    assert pairs_equal(builtin_pair("G2"), builtin_pair("G1"), 2, 5) == \
        (0, "a", Mismatch(0, 0, 1))
    assert pairs_equal(unit_pair(Monomial(2, 1)), unit_pair(Monomial(3, 1)),
                       2, 5) == (0, "a", Mismatch(1, 2, 3))


# -- transforms ----------------------------------------------------------------


def test_s1_twice_on_unit_pair_keeps_delta_alpha():
    p = chain(unit_pair(qmono(1)), [S1, S1])
    for n in range(1, 6):
        assert p.alpha(n, Fraction(30), D).is_zero
    assert p.alpha(0, Fraction(30), D).coeff_num(0) == 1
    assert verify_pair(p, 15, 40).ok


def test_s3_on_g1_matches_displayed_pair():
    # alpha'_n = q^(n^2/2) alpha_n and
    # beta'_n = 1/(-q^(1/2);q)_n * sum_k q^(k^2/2)/((q;q)_{n-k}(q^2;q^2)_k).
    order = Fraction(30)
    g1 = builtin_pair("G1")
    p = apply_transform(g1, S3)
    assert p.a == g1.a
    t_q = inv_poch_table(qmono(1), 1, 10, order, D)
    t_sq = inv_poch_table(qmono(2), 2, 10, order, D)
    t_half = inv_poch_table(Monomial(-1, HALF), 1, 10, order, D)
    for n in range(11):
        expect_a = g1.alpha(n, order, D) * monomial_series(
            qmono(Fraction(n * n, 2)), den=D)
        assert equal_up_to(p.alpha(n, order, D), expect_a, order)
        acc = QSeries(D, {}, exp_num(order, D))
        for k in range(n + 1):
            acc = acc + monomial_series(qmono(Fraction(k * k, 2)), den=D) * \
                t_q[n - k] * t_sq[k]
        assert equal_up_to(p.beta(n, order, D), acc * t_half[n], order)


def test_s5_on_g2_shares_beta_with_s3_on_g1():
    # Both reductions land on the same beta, with different alphas.
    order = Fraction(30)
    p5 = apply_transform(builtin_pair("G2"), S5)
    p3 = apply_transform(builtin_pair("G1"), S3)
    for n in range(9):
        assert equal_up_to(p5.beta(n, order, D), p3.beta(n, order, D), order)
    g2 = builtin_pair("G2")
    ratio_num = PochRow((Monomial(-1, Fraction(3, 2)),), 1, order, D)[5]
    ratio_den = inv_poch_table(Monomial(-1, HALF), 1, 5, order, D)
    expect = g2.alpha(5, order, D) * ratio_num * ratio_den[5] * \
        monomial_series(qmono(Fraction(25, 2)), den=D)
    assert equal_up_to(p5.alpha(5, order, D), expect, order)
    assert verify_pair(p5, 10, 30).ok


def test_s3_s5_chain_promotes_alpha_exponent():
    # The two unit ratios cancel, so alpha keeps the seed's closed shape
    # with u = q^(3/2) promoted to q^(3/2 + 2):
    # alpha_n = (-1)^n u^C(n+1,2) (q^-n - q^(n+1)) / (1 - q).
    p = chain(builtin_pair("G1star"), [S3, S5])
    u = Fraction(7, 2)
    for n in range(1, 11):
        top = u * Fraction(n * (n + 1), 2)
        order = top + n + 2
        expect = QSeries.from_terms(
            [(top - n + j, (-1) ** n) for j in range(2 * n + 1)], den=D)
        assert equal_up_to(p.alpha(n, order, D), expect, order), f"n={n}"


def test_s5_requires_square_root_on_lattice():
    p = unit_pair(Monomial(1, Fraction(1, 4)))
    with pytest.raises(ValueError):
        apply_transform(p, S5)


def test_djk_lowers_relative_parameter():
    p = apply_transform(builtin_pair("G1star"), DJK(qmono(2)))
    assert p.a == Monomial(1, 0)
    assert verify_pair(p, 12, 40).ok


def test_djk_rejects_singular_parameter():
    # (b;q)_n has the factor 1 - b q^j = 0 for every n > j when b = q^-j,
    # so the step is refused when applied, not at the first such n
    for b, name in ((Monomial(1, 0), "1"), (qmono(-1), "q^-1"),
                    (qmono(-2), "q^-2")):
        for seed in ("G1star", "G2"):
            with pytest.raises(ValueError,
                               match=re.escape(
                                   f"DJK is singular for b = {name}: ")):
                apply_transform(builtin_pair(seed), DJK(b))
    # the same exponents with another coefficient, or off the integers,
    # leave every factor nonzero
    for b in (Monomial(-1, -2), Monomial(2, -1), qmono(Fraction(-1, 2))):
        assert verify_pair(apply_transform(builtin_pair("G2"), DJK(b)),
                           4, 8).ok


@pytest.mark.parametrize("pair", [
    builtin_pair("G1"), builtin_pair("G3"), unit_pair(qmono(-2))],
    ids=["G1", "G3", "unit-q^-2"])
def test_djk_refuses_a_pair_relative_to_a_nonpositive_integer_power(pair):
    # the shifted pair's (aq;q)_n = (a;q)_n has the factor 1 - 1
    with pytest.raises(ValueError, match="singular"):
        apply_transform(pair, DJK(qmono(2)))


@pytest.mark.parametrize("seed, b", [
    ("G2", Monomial(-1, -1)), ("G2", Monomial(2, -1)),
    ("G1star", Monomial(Fraction(1, 2), -2)),
    ("G1star", Monomial(-1, Fraction(-1, 2)))])
def test_djk_with_a_negative_exponent_shift_keeps_the_pair_relation(seed, b):
    # 1/(1 - b) and the first factors of 1/(b;q)_n have a negative exponent;
    # the defining relation, summed here from entries read through the
    # order, is the oracle
    p = apply_transform(builtin_pair(seed), DJK(b))
    order, n_max = Fraction(12), 5
    aq = Monomial(p.a.coeff, p.a.exp + 1)
    tq = inv_poch_table(qmono(1), 1, 2 * n_max, order, D)
    taq = inv_poch_table(aq, 1, 2 * n_max, order, D)
    alphas = [term(p.alpha, k, order, D) for k in range(n_max + 1)]
    for n in range(n_max + 1):
        rhs = sum((alphas[k] * tq[n - k] * taq[n + k] for k in range(n + 1)),
                  QSeries.zero(D))
        assert compare_up_to(term(p.beta, n, order, D), rhs, order) is None


@pytest.mark.parametrize("text", [
    "G2 |> DJK(-q^-1)", "G2 |> DJK(2*q^-1)", "G1star |> DJK(1/2*q^-2)",
    "G1star |> DJK(-q^(-1/2))"])
def test_djk_with_a_negative_exponent_shift_honours_the_order(text):
    # 1 - b q^n, and for b = q^-2 the first factor of (bq;q)_n, lowered the
    # validity below the order at valuation >= 0, so verify_pair's bare
    # request of alpha failed
    p = run_chain(text)
    for order in (Fraction(7, 2), Fraction(16)):
        onum = exp_num(order, D)
        for n in range(6):
            for gen in (p.alpha, p.beta):
                s = gen(n, order, D)
                assert s.order_num >= onum + min(0, s.min_num or 0), (n, gen)
    assert verify_pair(p, 5, 16).ok


def test_apply_transform_refuses_an_unknown_kind_and_s5_off_unit_a():
    with pytest.raises(ValueError, match="unknown transform kind 'S7'"):
        apply_transform(builtin_pair("G1"), TransformStep("S7"))
    with pytest.raises(ValueError, match="S5 needs a = q\\^e"):
        apply_transform(unit_pair(Monomial(2, 0)), S5)


def test_term_reads_an_entry_valid_through_the_order():
    # c12 = -3 q^-2, so the r-sum's weights lower a bare request's validity
    p = run_chain("G1 |> GENERAL(1/3*q^2, -q)")
    order = Fraction(12)
    onum = exp_num(order, D)
    assert any(p.beta(n, order, D).order_num < onum for n in range(5))
    for n in range(5):
        for gen in (p.alpha, p.beta):
            got = term(gen, n, order, D)
            assert got.order_num >= onum
            deep = gen(n, order + 4 * n + 2, D)
            assert compare_up_to(got, deep, order) is None


def test_djk_limit_equals_g3_exactly():
    lim = chain(builtin_pair("G1star"), [DJK_LIMIT(Monomial(1, Fraction(3, 2)))])
    g3 = builtin_pair("G3")
    assert lim.a == g3.a
    order = Fraction(50)
    for n in range(21):
        assert compare_up_to(lim.alpha(n, order, D),
                             g3.alpha(n, order, D), order) is None
        assert compare_up_to(lim.beta(n, order, D),
                             g3.beta(n, order, D), order) is None


def test_djk_limit_rejects_wrong_shape_or_parameter():
    with pytest.raises(ValueError):
        apply_transform(builtin_pair("G1"), DJK_LIMIT(qmono(2)))
    with pytest.raises(ValueError):
        apply_transform(builtin_pair("G2"), DJK_LIMIT(Monomial(1, Fraction(3, 2))))


def test_djk_limit_refuses_an_alpha_cut_below_its_probe():
    # an alpha_0 valid only to q^5 cannot be compared with the u-shape at
    # the probe, so the comparison's TruncationError is a difference at q^0
    g1star = builtin_pair("G1star")
    cut = BaileyPair(g1star.a,
                     lambda n, order, den: g1star.alpha(n, order, den)
                     .truncated(5),
                     g1star.beta, name="cut")
    with pytest.raises(ValueError, match=re.escape(
            "alpha_0 does not have the required u-shape (first difference "
            "near q^0)")):
        apply_transform(cut, DJK_LIMIT(Monomial(1, Fraction(3, 2))))


def test_random_chains_stay_bailey_pairs():
    rng = random.Random(20260814)
    general = GENERAL(Monomial(-1, HALF), Monomial(-1, 1))
    done = 0
    while done < 12:
        name = rng.choice(sorted(BUILTIN_NAMES))
        p = builtin_pair(name)
        steps = []
        for _ in range(rng.randrange(1, 4)):
            pool = [S1, S3, S5]
            if rng.random() < 0.25:
                pool = [general]
            if p.a == qmono(1):
                pool.append(DJK(qmono(2)))
            step = rng.choice(pool)
            steps.append(step)
            p = apply_transform(p, step)
        rep = verify_pair(p, 10, 30)
        assert rep.ok, f"{name} + {[s.kind for s in steps]}: n={rep.failures}"
        done += 1


# The chains of BENCH_6.json, and SHA-256 digests of their generators: for
# alpha_n and beta_n, n <= 5, asked for at order 12, the order_num line and
# the dump.  The digests pin the exact terms and validity of every transform.
GOLDEN_CHAINS = {
    "G1 |> S1":
        "240883f1097e31ec02499f60cb76e12f1ebf4de7ce385e4cad27985a14663f3e",
    "G2 |> S3":
        "df2093f5ee50c53e50364ade388d3cc4a537ebba7baf6bc29f7ae364af9f1d73",
    "G3 |> S5":
        "0a91f327a3fc51f9543dfa0b4b9fb29ca53748055b020ad933d4c678ebc730a9",
    "G1star |> S3 |> S5":
        "1269be0c1417697e056185f0cf1fc3a7cc06cd339dbe2441d87a9a8198be9aa1",
    "G1 |> GENERAL(-q^(1/2), q^(3/2))":
        "9f4150537a45f6a2d5da46b54b6f2368bc225eb49bedfa047608aef81ab4403e",
    "G1star |> DJKLIM(q^(3/2))":
        "d771426702f9bf38c8a570f4ae06d1e140a35ee6fc538a6e53d9cab83dc4b9be",
    "G1 |> GENERAL(1/3*q^2, -q)":
        "4c29d0b1f6836125d6f44c60a2bc3eed73f0d4f5632a22ccc5a08f4824b4c8d3",
    "G2 |> GENERAL(1/2*q, -q)":
        "c7717158c95ead1b065685659fb5747b7d29b2ec5e21fab94a9d5b31256e6dae",
}


def _generators_digest(p: BaileyPair) -> str:
    h = hashlib.sha256()
    for n in range(6):
        for gen in (p.alpha, p.beta):
            s = gen(n, Fraction(12), D)
            h.update(f"{s.order_num}\n".encode())
            h.update(dump(s, 12 if s.order_num is None else None).encode())
    return h.hexdigest()


def test_transform_generators_golden():
    for text, want in GOLDEN_CHAINS.items():
        assert _generators_digest(run_chain(text)) == want, text


# -- shared rows and tables -----------------------------------------------------


def _lemma_oracle(a, alpha, beta, step):
    """The step's alpha and beta with every n evaluated from scratch: each
    Pochhammer symbol by a fresh PochRow and each 1/(x;q)_n by a fresh
    inv_poch_table to n.  Parameters are the lemma's as bailey states them;
    the rho exponents drawn below are positive, where a product of
    one-symbol rows cuts as the lemma's heads do."""
    aq = Monomial(a.coeff, a.exp + 1)

    def over(x, y):
        return Monomial(Fraction(x.coeff) / y.coeff, x.exp - y.exp)

    def power(m, k):
        return lambda r: Monomial(Fraction(m.coeff) ** r, m.exp * r + k * r * r)

    half_a = a.exp / 2
    nums, dens, tail, mono = {
        "S1": lambda: ((), (), (), power(a, 1)),
        "S3": lambda: ((Monomial(-1, HALF),),
                       (Monomial(-a.coeff, a.exp + HALF),), (), power(a, HALF)),
        "S5": lambda: ((Monomial(-1, half_a + 1),), (Monomial(-1, half_a),),
                       (), power(Monomial(1, half_a - HALF), HALF)),
        "GENERAL": lambda: (
            step.params, tuple(over(aq, rho) for rho in step.params),
            (over(aq, step.params[0] * step.params[1]),),
            power(over(aq, step.params[0] * step.params[1]), 0)),
    }[step.kind]()

    def head(r, order, den):
        out = QSeries.one(den)
        for x in nums:
            out = out * PochRow((x,), 1, order, den)[r]
        return out

    def divide(s, n, order, den):
        for y in dens:
            s = s * inv_poch_table(y, 1, n, order, den)[n]
        return s

    def new_alpha(n, order, den):
        return divide(alpha(n, order, den) * head(n, order, den),
                      n, order, den) * mono(n)

    def new_beta(n, order, den):
        tq = inv_poch_table(qmono(1), 1, n, order, den)
        acc = QSeries(den, {}, exp_num(order, den))
        for r in range(n + 1):
            t = PochRow((tail[0],), 1, order, den)[n - r] if tail \
                else QSeries.one(den)
            acc = acc + beta(r, order, den) * head(r, order, den) * \
                (t * tq[n - r]) * mono(r)
        return divide(acc, n, order, den)

    return a, new_alpha, new_beta


def _chain_oracle(seed, steps):
    """(alpha, beta) of the chain, memoized per (n, order, den) only."""
    comp = Monomial(-1, Fraction(3, 2) if seed == "G2" else HALF)

    def seed_beta(n, order, den):
        out = invert_unit(PochRow((qmono(2),), 2, order, den)[n] *
                          PochRow((comp,), 1, order, den)[n], order)
        return out * Monomial(1, n) if seed == "G3" else out

    seed_pair = builtin_pair(seed)
    a, alpha, beta = seed_pair.a, seed_pair.alpha, seed_beta
    for step in steps:
        if step.kind == "DJK":
            (b,) = step.params

            def djk_beta(n, order, den, inner=beta, b=b):
                bq = Monomial(b.coeff, b.exp + 1)
                return inner(n, order, den) * \
                    PochRow((bq,), 1, order, den)[n] * \
                    inv_poch_table(b, 1, n, order, den)[n]

            # DJK's alpha reads no table or row, so the oracle borrows it
            a, alpha, _ = TRANSFORMS["DJK"][1](BaileyPair(a, alpha, beta), b)
            beta = djk_beta
        else:
            a, alpha, beta = _lemma_oracle(a, alpha, beta, step)
        alpha, beta = lru_cache(maxsize=None)(alpha), \
            lru_cache(maxsize=None)(beta)
    return alpha, beta


def _outcome(gen, n, order, den):
    try:
        s = gen(n, order, den)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return sorted(s.terms.items()), s.order_num


def test_rows_match_a_from_scratch_oracle_in_any_request_order():
    rng = random.Random(20261101)
    coeffs = [Fraction(c) for c in ("-1", "2", "-2", "1/2", "-1/3")]
    exps = [HALF, Fraction(1), Fraction(3, 2), Fraction(2)]
    kinds = set()
    for _ in range(8):
        seed = rng.choice(sorted(BUILTIN_NAMES))
        p = builtin_pair(seed)
        steps = []
        for _ in range(rng.randrange(1, 4)):
            pool = [S1, S3, S5]
            if rng.random() < 0.4:
                pool = [GENERAL(Monomial(rng.choice(coeffs), rng.choice(exps)),
                                Monomial(rng.choice(coeffs), rng.choice(exps)))]
            if p.a == qmono(1):
                pool.append(DJK(qmono(2)))
            steps.append(rng.choice(pool))
            p = apply_transform(p, steps[-1])
        kinds.update(st.kind for st in steps)
        alpha, beta = _chain_oracle(seed, steps)
        requests = [(n, order, den, side)
                    for order, n_top in ((Fraction(7, 2), 6), (Fraction(16), 6),
                                         (Fraction(30), 4))
                    for n in range(n_top + 1) for den in (4, 8)
                    for side in ("alpha", "beta")]
        rng.shuffle(requests)
        for n, order, den, side in requests:
            got = _outcome(getattr(p, side), n, order, den)
            want = _outcome(alpha if side == "alpha" else beta, n, order, den)
            assert got == want, (p.name, side, n, order, den)
    assert {"GENERAL", "DJK", "S1", "S3", "S5"} <= kinds


def test_inv_table_entries_do_not_depend_on_the_first_request():
    for arg, base in ((qmono(1), 1), (Monomial(-1, HALF), 1), (qmono(2), 2),
                      (Monomial(2, 0), 1), (Monomial(3, -2), 1),
                      (Monomial(Fraction(1, 3), -1), HALF)):
        for order, den in ((Fraction(7, 2), 4), (Fraction(16), 8)):
            up = PochRow((arg,), base, order, den, -1)
            rows = [[up[n] for n in range(8)]]
            _inv_table.cache_clear()
            shared = _inv_table(arg, Fraction(base), order, den)
            shared[7]
            rows.append([shared[n] for n in range(8)])
            _inv_table.cache_clear()
            shared = _inv_table(arg, Fraction(base), order, den)
            read = {n: shared[n] for n in (3, 0, 7, 5, 1, 2, 6, 4)}
            rows.append([read[n] for n in range(8)])
            rows.append([inv_poch_table(arg, base, n, order, den)[n]
                         for n in range(8)])
            if arg.exp > 0:  # unit series: the inverse of the polynomial
                rows.append([invert_unit(PochRow((arg,), base, order, den)[n],
                                         order) for n in range(8)])
            want = [(s.terms, s.order_num) for s in rows[0]]
            for row in rows[1:]:
                assert [(s.terms, s.order_num) for s in row] == want, arg


def test_inv_table_cache_is_bounded_and_counts_hits():
    # perfbench's traced runs (--trace 1) read and reset these counters
    _inv_table.cache_clear()
    assert _inv_table.cache_info().currsize == 0
    verify_pair(builtin_pair("G1"), 3, 10)
    info = _inv_table.cache_info()
    assert info.maxsize == 1024
    assert info.misses > 0 and info.hits > 0
    _inv_table.cache_clear()
    assert _inv_table.cache_info().hits == 0


def _draw_chains(rng, count):
    """(seed, steps) drawn as acceptance criterion 5 draws them, with
    GENERAL's rhos drawn too; the coefficients exclude +1, so every step is
    defined."""
    coeffs = [Fraction(c) for c in ("-1", "2", "-2", "1/2", "-1/3")]
    exps = [HALF, Fraction(1), Fraction(3, 2), Fraction(2)]
    chains = []
    for _ in range(count):
        seed = rng.choice(sorted(BUILTIN_NAMES))
        p = builtin_pair(seed)
        steps = []
        for _ in range(rng.randrange(1, 4)):
            pool = [S1, S3, S5]
            if rng.random() < 0.25:
                pool = [GENERAL(Monomial(rng.choice(coeffs), rng.choice(exps)),
                                Monomial(rng.choice(coeffs), rng.choice(exps)))]
            if p.a == qmono(1):
                pool.append(DJK(qmono(2)))
            steps.append(rng.choice(pool))
            p = apply_transform(p, steps[-1])
        chains.append((seed, tuple(steps)))
    return chains


def _entry(s):
    return sorted(s.terms.items()), s.d, s.order_num


def _chain_outputs(seed, steps):
    """verify_pair's report (or its TruncationError) and the raw entries
    of a chain at two (order, den) requests."""
    p = chain(builtin_pair(seed), steps)
    try:
        out = [repr(verify_pair(p, 4, 12))]
    except TruncationError as exc:
        out = [f"TruncationError: {exc}"]
    for order, den in ((Fraction(10), 4), (Fraction(7, 2), 8)):
        for n in range(5):
            for gen in (p.alpha, p.beta):
                out.append(_entry(gen(n, order, den)))
    return out


def test_shared_pairs_and_rows_give_what_cold_ones_give():
    rng = random.Random(20261020)
    chains = _draw_chains(rng, 24)
    cold = {}
    for c in chains:
        empty_tables()
        cold[c] = _chain_outputs(*c)
    empty_tables()
    order = chains * 2
    rng.shuffle(order)
    for c in order:
        assert _chain_outputs(*c) == cold[c], c
    # every prefix is built once and kept for the rest of the session
    prefixes = {(seed, steps[:k]) for seed, steps in chains
                for k in range(1, len(steps) + 1)}
    assert apply_transform.cache_info().misses == len(prefixes)
    assert apply_transform.cache_info().hits > 0


def _row_memo(gen):
    """The per-(order, den) row memo a transform's generator closes over:
    the lemma's _Row or DJK's heads."""
    (memo,) = [c.cell_contents for c in gen.__wrapped__.__closure__
               if hasattr(c.cell_contents, "cache_info")]
    return memo


@pytest.mark.parametrize("seed, step", [
    ("G1", GENERAL(Monomial(-1, HALF), Monomial(-1, 1))),
    ("G1star", DJK(qmono(2))),
])
def test_an_evicted_row_is_rebuilt_to_the_same_entries(seed, step):
    # the fourth request finds the row for order 16 evicted, and its new
    # indices are read from a rebuilt row
    requests = [(Fraction(16), 4), (Fraction(33, 2), 5), (Fraction(17), 5),
                (Fraction(16), 7)]
    cold = {}
    for order, top in requests:
        empty_tables()
        p = apply_transform(builtin_pair(seed), step)
        for n in range(top):
            for side in ("alpha", "beta"):
                cold[n, order, side] = _entry(getattr(p, side)(n, order, D))
    empty_tables()
    p = apply_transform(builtin_pair(seed), step)
    rows = _row_memo(p.beta)
    for order, top in requests:
        for n in range(top):
            for side in ("alpha", "beta"):
                got = _entry(getattr(p, side)(n, order, D))
                assert got == cold[n, order, side], (side, n, order)
                assert rows.cache_info().currsize <= ROWS_KEPT == 2
    assert rows.cache_info().misses == len(requests)


def test_pair_tables_keep_one_pair_per_key_and_no_failure():
    g1 = builtin_pair("G1")
    assert builtin_pair("G1*") is builtin_pair("G1star")
    step = GENERAL(Monomial(-1, HALF), Monomial(-1, 1))
    again = GENERAL(Monomial(Fraction(-1), Fraction(1, 2)), Monomial(-1, 1))
    assert step is not again
    assert apply_transform(g1, step) is apply_transform(g1, again)
    kept = apply_transform.cache_info().currsize
    # G1star has a = q, so aq/rho = 1 for rho = q^2; DJK(1) has 1 - b = 0
    for singular in (GENERAL(qmono(2), Monomial(-1, 1)), DJK(qmono(0))):
        for _ in range(2):
            with pytest.raises(ValueError, match="singular"):
                apply_transform(builtin_pair("G1star"), singular)
    assert apply_transform.cache_info().currsize == kept


def test_each_pair_keeps_every_entry_once():
    g1star = builtin_pair("G1star")
    pairs = [builtin_pair("G1"), apply_transform(builtin_pair("G1"), S3),
             apply_transform(g1star, DJK(qmono(2))),
             apply_transform(g1star, DJK_LIMIT(qmono(Fraction(3, 2)))),
             unit_pair(qmono(0))]
    for p in pairs:
        for gen in (p.alpha, p.beta):
            for n, order, den in ((0, Fraction(6), 4), (3, Fraction(10), 4),
                                  (2, Fraction(7, 2), 8)):
                assert gen(n, order, den) is gen(n, order, den), (p.name, n)
    kernel = _kernel_table(qmono(1), Fraction(6), 4)
    assert kernel(3, 1) is kernel(3, 1)
    # G1star has a = q, so S5's q^(1/2) is off the (1/1)-lattice
    p = apply_transform(g1star, S5)
    kept = p.alpha.cache_info().currsize
    for _ in range(2):
        with pytest.raises(LatticeError):
            p.alpha(1, Fraction(6), 1)
    assert p.alpha.cache_info().currsize == kept


def test_a_long_chain_verifies_under_the_default_recursion_limit():
    # each step costs two levels of recursion: the lemma's generator and
    # the memo that wraps it
    assert verify_pair(chain(builtin_pair("G1"), [S1] * 300), 3, 10).ok


# -- limit identities ------------------------------------------------------------


def test_limit_identity_unit_pair():
    for a in (Monomial(1, 0), qmono(1)):
        p = unit_pair(a)
        lhs, rhs = limit_identity(p, 40)
        assert equal_up_to(lhs, rhs, 40)
        aq = Monomial(a.coeff, a.exp + 1)
        order = Fraction(40)
        tq = inv_poch_table(qmono(1), 1, 7, order, D)
        taq = inv_poch_table(aq, 1, 7, order, D)
        acc = QSeries(D, {}, exp_num(order, D))
        for n in range(8):
            head = Monomial(Fraction(a.coeff) ** n, n * a.exp + n * n)
            acc = acc + monomial_series(head, den=D) * tq[n] * taq[n]
        assert equal_up_to(lhs, acc, 40)


def test_limit_identity_collapses_to_theta_quotient():
    # The half-square transform of the first built-in pair, read in base q^2,
    # sums to (q^4,q^5,q^9;q^9)_inf / (q^2;q^2)_inf.
    p = apply_transform(builtin_pair("G1"), S3)
    lhs, rhs = limit_identity(p, 21)
    assert equal_up_to(lhs, rhs, 21)
    doubled = substitute_power(lhs, 2)
    expect = eval_product(J(4, 9) / J(2), 42, D)
    assert equal_up_to(doubled, expect, 42)


def test_limit_identity_refuses_terms_past_its_cutoff():
    # beta_n = q^(-n^2) cancels the S1 weight q^(n^2): every index adds at
    # q^0, so the two indices past the cutoff (9 at order 10) are refused
    flat = BaileyPair(
        Monomial(1, 0), lambda n, order, den: QSeries(den, {}, None),
        lambda n, order, den: QSeries(den, {exp_num(-n * n, den): 1}, None),
        name="flat")
    with pytest.raises(ValueError, match=re.escape(
            "beta_9 still contributes at q^0; valuation growth assertion "
            "failed")):
        limit_identity(flat, 10)


def test_limit_identity_order_zero():
    lhs, rhs = limit_identity(builtin_pair("G2"), 0)
    assert lhs.coeff_num(0) == 1 and rhs.coeff_num(0) == 1
    assert compare_up_to(lhs, rhs, 0) is None


# -- chain expressions -----------------------------------------------------------


def test_parse_chain_goldens():
    seed, steps = parse_chain("G1star |> S3 |> S5")
    assert seed == "G1star"
    assert [s.kind for s in steps] == ["S3", "S5"]
    assert all(s.params == () for s in steps)

    seed, steps = parse_chain("G2")
    assert seed == "G2" and steps == ()

    seed, steps = parse_chain("G1star|>DJKLIM(q^(3/2))")
    assert steps[0].kind == "DJK_LIMIT"
    assert steps[0].params == (Monomial(1, Fraction(3, 2)),)

    seed, steps = parse_chain("G1 |> GENERAL(-q^(1/2), q^2) |> S1")
    assert steps[0].kind == "GENERAL"
    assert steps[0].params == (Monomial(-1, HALF), qmono(2))
    assert steps[1].kind == "S1"


@pytest.mark.parametrize("text", [
    "",
    "G1 |>",
    "G1 |> BOGUS",
    "G1 |> S1(q)",
    "G1 |> DJK",
    "G1 |> DJK()",
    "G1 |> GENERAL(q)",
    "G1 |> S3 extra",
])
def test_parse_chain_rejects(text):
    with pytest.raises(ValueError):
        parse_chain(text)


def test_run_chain_folds_from_builtin_seed():
    p = run_chain("G1star |> DJKLIM(q^(3/2))")
    assert pairs_equal(p, builtin_pair("G3"), 8, 30) is None
    assert "|>" in p.name


def test_empty_chain_returns_seed():
    p = builtin_pair("G2")
    assert chain(p, []) is p


STEP_SPELLINGS = {
    "S1": ("S1", "s1"), "S3": ("S3", "s3"), "S5": ("S5", "s5"),
    "GENERAL": ("GENERAL", "general", "General"),
    "DJK": ("DJK", "djk"),
    "DJK_LIMIT": ("DJK_LIMIT", "djk_limit", "DJKLIM", "djklim"),
}


def _spell_monomial(rng: random.Random) -> tuple[str, Monomial]:
    """A random monomial, spelled in one of the forms a step accepts."""
    coeff = rng.choice([1, -1]) * Fraction(rng.randint(1, 4),
                                           rng.choice([1, 1, 2, 3]))
    exp = rng.choice([Fraction(0), Fraction(1), Fraction(rng.randint(-3, 4)),
                      Fraction(rng.randint(-5, 5), 2)])
    sign = rng.choice(["-", "- "]) if coeff < 0 else ""
    mag = str(abs(coeff))
    if exp == 0 and rng.random() < 0.7:
        return sign + mag, Monomial(coeff, exp)
    forms = [f"q^({exp})"]
    if exp.denominator == 1:
        forms.append(f"q^{exp}")
    if exp == 1:
        forms.append("q")
    qs = rng.choice(forms)
    if abs(coeff) != 1 or rng.random() < 0.5:
        qs = mag + rng.choice(["", "*", " * ", " "]) + qs
    return sign + qs, Monomial(coeff, exp)


def test_parse_chain_spellings_differential():
    rng = random.Random(20261019)
    for _ in range(300):
        seed = rng.choice(["G1", "G2", "G3", "G1star", "G1*"])
        parts, steps = [seed], []
        for _ in range(rng.randrange(4)):
            kind = rng.choice(sorted(STEP_SPELLINGS))
            arity = TRANSFORMS[kind][0]
            monos = [_spell_monomial(rng) for _ in range(arity)]
            text = rng.choice(STEP_SPELLINGS[kind])
            if arity or rng.random() < 0.3:
                text += rng.choice(["", " "]) + "(" + \
                    rng.choice([",", ", "]).join(m for m, _ in monos) + ")"
            parts.append(text)
            steps.append(TransformStep(kind, tuple(m for _, m in monos)))
        text = rng.choice([" |> ", "|>"]).join(parts)
        assert parse_chain(text) == (seed, tuple(steps)), text


@pytest.mark.parametrize("text", [
    "G1 |> DJK(+q^2)",
    "G1 |> GENERAL(q, +2)",
    "G1 |> DJKLIM(q^3/2)",
    "G1 |> S1 |>",
])
def test_parse_chain_rejects_other_spellings(text):
    with pytest.raises(ValueError):
        parse_chain(text)


def test_chain_names_round_trip():
    for text in GOLDEN_CHAINS:
        seed, steps = parse_chain(text)
        name = run_chain(text).name
        assert parse_chain(name) == (seed, steps), name
