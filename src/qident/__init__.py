"""qident: exact q-series engine and identity verifier.

The library is organized around one value type, :class:`qident.series.QSeries`
(truncated series in q**(1/D) over exact rationals), with layers on top:

* :mod:`qident.series`   -- the arithmetic kernel,
* :mod:`qident.products` -- finite and infinite Pochhammer symbols and
  product expressions,
* :mod:`qident.nahm`     -- lattice-sum evaluators for quadratic-exponent
  multi-sums and their rank reductions,
* :mod:`qident.bailey`   -- Bailey pair calculus and transform chains,
* :mod:`qident.catalog`  -- the identity database and verify pipeline,
* :mod:`qident.cli`      -- the ``qident`` command line front end.
"""

from qident.series import (
    DEFAULT_D,
    LatticeError,
    Mismatch,
    Monomial,
    QSeries,
    TruncationError,
    coefficient,
    compare_up_to,
    dump,
    equal_up_to,
    invert_unit,
    load_dump,
    monomial_series,
    qmono,
    substitute_power,
)
from qident.catalog import (
    Catalog,
    FamilyGenerator,
    Identity,
    ReductionReport,
    VerificationReport,
    load_catalog,
)

__all__ = [
    "DEFAULT_D",
    "LatticeError",
    "Mismatch",
    "Monomial",
    "QSeries",
    "TruncationError",
    "Catalog",
    "FamilyGenerator",
    "Identity",
    "ReductionReport",
    "VerificationReport",
    "coefficient",
    "compare_up_to",
    "dump",
    "equal_up_to",
    "invert_unit",
    "load_catalog",
    "load_dump",
    "monomial_series",
    "qmono",
    "substitute_power",
]

__version__ = "0.1.0"
