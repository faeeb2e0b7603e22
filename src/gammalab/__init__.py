"""gammalab: special-function kernels plus a batch identity verifier.

The package has four layers:

* :mod:`gammalab.kernels` -- scalar special functions with error estimates;
* :mod:`gammalab.series` / :mod:`gammalab.series_catalog` -- the
  tail-summation primitive and the catalog of named slow sums;
* :mod:`gammalab.quad` / :mod:`gammalab.integral_catalog` -- tanh-sinh
  quadrature and the catalog of named integrals;
* :mod:`gammalab.registry` -- identity records, verdicts and the suite
  runner, fronted by the ``gammalab`` command-line tool.
"""

from .kernels import (
    ConstantsCache,
    FnEvalResult,
    bernoulli_poly,
    clausen_cl2,
    digamma,
    exp_integral,
    get_constants,
    lambda_fn,
    log_barnes_g,
    log_gamma,
    polygamma,
    sici,
    sine_integral,
    stieltjes_gamma1,
    zeta_family,
)
from .quad import QuadResult, integrate, integrate_semi_infinite
from .integral_catalog import integral_catalog, list_integral_ids
from .registry import EvalOptions, IdentityRecord, Registry, Verdict
from .series import SeriesResult
from .series_catalog import list_series_ids, power_series_eval, sum_catalog

__version__ = "0.1.0"

__all__ = [
    "ConstantsCache", "FnEvalResult", "bernoulli_poly", "clausen_cl2",
    "digamma", "exp_integral", "get_constants", "lambda_fn", "log_barnes_g",
    "log_gamma", "polygamma", "sici", "sine_integral", "stieltjes_gamma1",
    "zeta_family",
    "QuadResult", "integrate", "integrate_semi_infinite",
    "integral_catalog", "list_integral_ids",
    "EvalOptions", "IdentityRecord", "Registry", "Verdict",
    "SeriesResult",
    "list_series_ids", "power_series_eval", "sum_catalog",
    "__version__",
]
