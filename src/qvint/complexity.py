"""Query-count formulas: how many oracle rounds a given domain needs.

Two planning rules are implemented.  The bounded-error rule picks the least
k with (|V|*q)^k >= q^n, enough for the image to have positive density in
the codomain.  The high-probability rule picks the least k for which
(|V_0|/|V|)^(2k), |V_0| the zero-touching count, falls below a target; its
shape depends on whether the field or the domain is larger.  That ratio is
not census.chebyshev_zero_bound, which reads the largest hyperplane
sections instead; the README states the open question between the two.

All ceilings of log-ratios are least-integer power inequalities.  Float
logs decide one only when they clear a bound on their own error; the
interesting instances sit exactly on decision boundaries, where a float log
is one ulp away from the wrong answer, so those are compared as exact
integers.
"""

__all__ = [
    "InstanceClassification", "QueryPlan", "ReductionPlan", "classify_instance",
    "multivariate_query_bounds", "plan_bounded_error", "plan_high_probability",
    "univariate_reduction",
]

import math
from dataclasses import dataclass

from .errors import ContractError, ParameterError, check_int

# Plans beyond this are outside anything this package can enumerate anyway,
# and their exact powers would run to millions of digits.
_MAX_PLANNED_K = 10 ** 6

LOW_REGIME_NOTE = (
    "success probability (1/k!)(1 - O(1/min(q, |V|))) at this query count"
)
HIGH_REGIME_NOTE = "success probability 1 - O(1/min(q, |V|)) at this query count"
DEGENERATE_NOTE = (
    "no domain vector touches zero, so the |V_0| formula sets no constraint "
    "and the least k, 1, is planned; it promises no success probability"
)


@dataclass(frozen=True)
class QueryPlan:
    """A query count together with the rule that produced it."""

    k: int
    rule: str
    note: str

    def __post_init__(self):
        if self.k < 1:
            raise ContractError(f"planned query count must be >= 1, got {self.k}")


def _least_k(ratio_num: int, ratio_den: int, target_num: int, target_den: int) -> int:
    """Least k >= 1 with (ratio_num/ratio_den)^k >= target_num/target_den.

    All arguments are positive integers and the ratio must exceed 1, which the
    callers guarantee.  k starts from the float estimate
    log(target)/log(ratio), which is off the exact value by a sliver: a plan
    it puts past _MAX_PLANNED_K + 1 is refused before any power is formed
    (those powers run to millions of digits), and any other is settled by a
    few comparisons either side of it.  A comparison is decided on the float
    logs when they clear their error bound, and on exact cross-multiplied
    powers only at a near-tie.
    """
    if ratio_num <= ratio_den:
        raise ContractError("power search needs a ratio strictly above 1")

    # math.log takes ints of any size; below 2 the quotient is under 1, and a
    # ratio within 2^-1074 of 1 would round to a zero log, so the least float
    # keeps it positive.  The estimate is clipped before it can be inf.
    if ratio_num >= 2 * ratio_den:
        log_num, log_den = math.log(ratio_num), math.log(ratio_den)
        log_ratio, ratio_scale = log_num - log_den, log_num + log_den
    else:
        log_ratio = math.log1p(max((ratio_num - ratio_den) / ratio_den, 5e-324))
        ratio_scale = log_ratio
    log_tnum, log_tden = math.log(target_num), math.log(target_den)
    log_target = log_tnum - log_tden

    def reached(k):
        # math.log of a positive int is within 2^-51 * (log x + 1) of the
        # truth: the int is rounded to a float (or split by frexp past the
        # float range), then libm's log adds an ulp.  log1p of the correctly
        # rounded quotient is within a few ulps of log_ratio, plus 2^-1074
        # for a subnormal quotient; the 5e-324 floor stands in only for a
        # log below it, so it is off by less than that, and k * 5e-324 is
        # far below the +1 terms.  With the roundings of the product and the
        # difference, gap is off by less than 2^-50 * (k * (ratio_scale + 1)
        # + log_tnum + log_tden + 1); the margin is over 1000 times that.
        gap = k * log_ratio - log_target
        if abs(gap) > 1e-12 * (k * (ratio_scale + 1) + log_tnum + log_tden + 1):
            return gap > 0
        return ratio_num ** k * target_den >= target_num * ratio_den ** k

    k = max(1, math.ceil(min(log_target / log_ratio, _MAX_PLANNED_K + 2)))
    while 1 < k <= _MAX_PLANNED_K + 1 and reached(k - 1):
        k -= 1
    while k <= _MAX_PLANNED_K and not reached(k):
        k += 1
    if k > _MAX_PLANNED_K:
        raise ContractError(f"query plan exceeded {_MAX_PLANNED_K}")
    return k


def _validate_counts(n, q, domain_size):
    check_int("dimension", n, 1)
    check_int("field order", q, 2)
    check_int("domain size", domain_size, 1)


def plan_bounded_error(n: int, q: int, domain_size: int) -> QueryPlan:
    """Least k with (|V|*q)^k >= q^n (the bounded-error query count)."""
    _validate_counts(n, q, domain_size)
    k = _least_k(domain_size * q, 1, q ** n, 1)
    return QueryPlan(k=k, rule="low-regime", note=LOW_REGIME_NOTE)


def plan_high_probability(n: int, q: int, domain_size: int,
                          zero_touching: int) -> QueryPlan:
    """Least k with (|V|/|V_0|)^(2k) >= |V|*q^n (field at least as large as
    the domain) or >= q^(n+1) (domain larger than field); at q = |V| the two
    targets are the same integer."""
    _validate_counts(n, q, domain_size)
    check_int("zero-touching count", zero_touching, 0)
    if zero_touching > domain_size:
        raise ParameterError(f"zero-touching count must lie in [0, {domain_size}], "
                             f"got {zero_touching}")
    if zero_touching == domain_size:
        raise ParameterError(
            "every domain vector touches zero; the high-probability formula "
            "is undefined at |V_0| = |V|"
        )
    if zero_touching == 0:
        return QueryPlan(k=1, rule="high-regime-degenerate", note=DEGENERATE_NOTE)
    if q < domain_size:
        target, rule = q ** (n + 1), "high-regime-V-large"
    else:
        target = domain_size * q ** n
        rule = "high-regime-q-large" if q > domain_size else "high-regime-tie"
    k = _least_k(domain_size * domain_size, zero_touching * zero_touching, target, 1)
    return QueryPlan(k=k, rule=rule, note=HIGH_REGIME_NOTE)


def query_plans(stats) -> tuple:
    """(bounded-error plan, high-probability plan, why the latter is
    undefined) for a DomainStats; exactly one of the last two is None."""
    n, q, size = stats.length, stats.field_order, stats.size
    low = plan_bounded_error(n, q, size)
    try:
        return low, plan_high_probability(n, q, size, stats.zero_touching), None
    except ParameterError as exc:
        return low, None, str(exc)


def multivariate_query_bounds(n: int, q: int, variables: int) -> tuple:
    """Conservative bracket (ceil((n+1)/(2*m^m)), ceil((n+1)*q^m/2)) for the
    high-probability query count of an m-variable monomial domain."""
    _validate_counts(n, q, 1)
    check_int("variable count", variables, 1)
    m = variables
    lower = -((n + 1) // -(2 * m ** m))
    upper = -((n + 1) * q ** m // -2)
    return lower, upper


@dataclass(frozen=True)
class ReductionPlan:
    """Substitution collapsing m variables into powers of the first one.

    Variable i maps to x^(exponents[i-1]); a monomial with exponent tuple e
    maps to x^(sum e_i * exponents[i-1]).  The map is injective on all
    monomials of total degree <= degree, so the reduced problem is
    univariate of degree reduced_degree.

    Proof: write x_i = exponents[i-1], so x_1 = 1 and x_(i+1) = d * x_i + 1.
    The x_i increase, so for every j the first j terms of the sum are at
    most (e_1 + ... + e_j) * x_j <= d * x_j < x_(j+1).  The sum is thus a
    mixed-radix numeral with digits e_i: e_m is its quotient by x_m, the
    remainder is the numeral of the first m - 1 digits, and so on down.
    Distinct tuples give distinct exponents, and the largest, d * x_m, is
    that of the last variable to the power d.
    """

    variables: int
    degree: int
    exponents: tuple
    reduced_degree: int
    suggested_k: int
    note: str


def univariate_reduction(variables: int, degree: int) -> ReductionPlan:
    """Exponents x_1 = 1, x_(i+1) = d * x_i + 1 (1, 1+d, 1+d+d^2, ...)
    substituting every variable by a power of the first, plus the
    parity-based query count for the reduced degree D = d * x_m =
    d + d^2 + ... + d^m; ReductionPlan proves the substitution injective."""
    check_int("variable count", variables, 1)
    check_int("monomial degree", degree, 1)
    d = degree
    exponents = [1]
    for _ in range(variables - 1):
        exponents.append(d * exponents[-1] + 1)
    reduced_degree = d * exponents[-1]

    if reduced_degree % 2 == 1:
        suggested_k = (reduced_degree + 1) // 2
        note = "reduced degree is odd; bounded-error parity rule applies directly"
    else:
        suggested_k = reduced_degree // 2 + 1
        note = (
            "reduced degree is even; the direct half-degree-plus-half value is "
            "non-integral, so the even-degree rule D/2 + 1 is reported instead"
        )
    return ReductionPlan(variables=variables, degree=d, exponents=tuple(exponents),
                         reduced_degree=reduced_degree, suggested_k=suggested_k, note=note)


@dataclass(frozen=True)
class InstanceClassification:
    """How a concrete (domain, k) choice relates to the planned counts."""

    k: int
    meets_bounded_error: bool
    meets_high_probability: bool | None
    summary: str


def classify_instance(stats, k: int) -> InstanceClassification:
    """Compare an explicit query count against both planning rules.

    stats is a DomainStats (or anything with field_order, length, size,
    zero_touching attributes).  k must be at least 1; k = 0 never
    interpolates anything beyond the zero secret.
    """
    check_int("query count", k, 1)
    low, high, _ = query_plans(stats)
    meets_high = None if high is None else k >= high.k
    if high is not None and k == high.k:
        summary = "high-regime exact match"
    elif k == low.k:
        summary = "low-regime exact match"
    elif k < low.k:
        summary = "below the bounded-error query count"
    elif high is not None and k > high.k:
        summary = "exceeds the high-probability query count"
    else:
        summary = "between the bounded-error and high-probability query counts"
    return InstanceClassification(
        k=k,
        meets_bounded_error=k >= low.k,
        meets_high_probability=meets_high,
        summary=summary,
    )
