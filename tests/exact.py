"""A 60-digit reference for the asymptotic and finite-key rate formulas.

Only the standard library's `decimal`, at 60 significant digits; log2 x is
ln x / ln 2. A float input is read as its exact binary value, so a float
result can be measured in ulp of the true value of its formula rather than
against another float path. Vectors and spectra are lists of (value,
multiplicity) pairs, the form every depolarizing quantity takes.
"""

import functools
from decimal import Context, Decimal, localcontext

PRECISION = 60
# bracket width at which `critical_q` stops: far below a float's spacing
# near any root (2**-53 at 0.5), at a cost that keeps the tests quick
ROOT_WIDTH = Decimal("1e-25")


def _exact(fn):
    """Run fn under a 60-digit context, whatever the caller's context is."""
    @functools.wraps(fn)
    def wrapper(*args):
        with localcontext(Context(prec=PRECISION)):
            return fn(*args)
    return wrapper


LN2 = Decimal(2).ln(Context(prec=PRECISION))


@_exact
def log2(x: Decimal) -> Decimal:
    return x.ln() / LN2


@_exact
def entropy(weights: list[tuple[Decimal, int]]) -> Decimal:
    """H = -sum m p log2 p over (p, m) pairs, with 0 log 0 = 0."""
    return -sum((m * p * log2(p) for p, m in weights if p > 0), Decimal(0))


@_exact
def depolarizing_vector(d: int, q) -> list[tuple[Decimal, int]]:
    """(1 - Q, Q/(d-1), ..., Q/(d-1)) as (value, multiplicity) pairs."""
    q = Decimal(q)
    return [(1 - q, 1), (q / (d - 1), d - 1)]


@_exact
def depolarizing_spectrum(d: int, q) -> list[tuple[Decimal, int]]:
    """The Bell spectrum that the (d+1)-basis statistics reconstruct from
    the depolarizing vector c in every basis, lam[j, k] = (sum_s c[(s j - k)
    mod d] + c[j] - 1)/d: lam[0, 0], lam[0, k != 0] and the d(d-1) entries
    of rows j >= 1, which the sum over s makes uniform."""
    (c0, _), (c1, _) = depolarizing_vector(d, q)
    total = c0 + (d - 1) * c1
    return [((d * c0 + c0 - 1) / d, 1), ((d * c1 + c0 - 1) / d, d - 1), ((total + c1 - 1) / d, d * (d - 1))]


def _entropies(family: str, d: int, q) -> tuple[Decimal, Decimal]:
    """H(q) and I_E(Q): H(q) for two-basis, H(lam) - H(q) for dplus1."""
    h_q = entropy(depolarizing_vector(d, q))
    return h_q, h_q if family == "two-basis" else entropy(depolarizing_spectrum(d, q)) - h_q


@_exact
def ie(family: str, d: int, q) -> Decimal:
    """I_E(Q) of the family on the depolarizing channel."""
    return _entropies(family, d, q)[1]


@_exact
def r_inf(family: str, d: int, q) -> Decimal:
    """Unfloored r_inf = log2 d - H(q) - I_E(Q)."""
    h_q, i_e = _entropies(family, d, q)
    return _log2_int(d) - h_q - i_e


@functools.cache
def _log2_int(d: int) -> Decimal:
    return log2(Decimal(d))


@_exact
def critical_q(family: str, d: int) -> Decimal:
    """The root of r_inf in (0, (d-1)/d), bisected to ROOT_WIDTH."""
    lo, hi = Decimal(0), Decimal(d - 1) / d
    while hi - lo > ROOT_WIDTH:
        mid = (lo + hi) / 2
        if r_inf(family, d, mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# ---------------------------------------------------------------------------
# the finite-key formulas of `rates_finite` and `adversary`

# the package's tolerances, written out so this file imports nothing of it
SATURATION_TOL = Decimal("1e-12")
CLAMP_MASS_TOL = Decimal("1e-6")


@_exact
def xi(m: int, d: int, eps_pe) -> Decimal:
    """Fluctuation radius sqrt((2 ln(1/eps_PE) + 2 d ln(m + 1)) / m)."""
    return ((2 * (1 / Decimal(eps_pe)).ln() + 2 * d * Decimal(m + 1).ln()) / m).sqrt()


@_exact
def shifted_vector(d: int, q, radius, mode: str) -> tuple[list[tuple[Decimal, int]], bool]:
    """The depolarizing vector shifted by radius xi in a flux mode, its
    no-error pair first, and whether the shift saturates.

    Each raised error coordinate gains xi/(2(d-1)) (equal, all d-1 of
    them), xi/2 (single, coordinate 1 only) or xi/2 (brute, all d-1), and
    the no-error coordinate loses their total. That total exceeding 1 - Q
    by more than SATURATION_TOL, or xi > 4, saturates. The shift stops where
    the no-error coordinate meets the raised ones, all equal to Q/(d-1):
    the entropy along the shift peaks there.
    """
    (c0, _), (c1, _) = depolarizing_vector(d, q)
    raised = 1 if mode == "single" else d - 1
    delta = Decimal(radius) / (2 * (d - 1) if mode == "equal" else 2)
    added = raised * delta
    saturated = Decimal(radius) > 4 or c0 - added < -SATURATION_TOL
    shift = delta * min(Decimal(1), max(c0 - c1, Decimal(0)) / (added + delta))
    row = [(c0 - raised * shift, 1), (c1 + shift, raised), (c1, d - 1 - raised)]
    return [(value, m) for value, m in row if m > 0], saturated


@_exact
def ie_shared_check(d: int, key: list[tuple[Decimal, int]], check: list[tuple[Decimal, int]]) -> tuple[Decimal, bool]:
    """(d+1)-basis I_E of a key row and the check row that every check
    basis reads, both as pairs with the no-error pair first, and whether
    the pair saturates.

    The spectrum lam[j, k] = (sum_s c[(s j - k) mod d] + key[j] - 1)/d has
    row 0 (d c[-k] + key[0] - 1)/d and rows j >= 1 constant, (sum(c) +
    key[j] - 1)/d, since s j runs over every residue for prime d. It
    saturates when its negative entries carry more than CLAMP_MASS_TOL;
    else it is clipped at 0 and renormalized, and I_E = H(lam) - H(its row
    sums).
    """
    (k0, _), *key_errors = key
    total = sum((m * c for c, m in check), Decimal(0))
    row0 = [((d * c + k0 - 1) / d, m) for c, m in check]
    rest = [((total + k - 1) / d, m) for k, m in key_errors]  # each entry d times in its row
    lam = row0 + [(value, d * m) for value, m in rest]
    saturated = -sum((m * min(value, Decimal(0)) for value, m in lam), Decimal(0)) > CLAMP_MASS_TOL
    mass = sum((m * max(value, Decimal(0)) for value, m in lam), Decimal(0))
    lam = [(max(value, Decimal(0)) / mass, m) for value, m in lam]
    rows = [(sum((m * value for value, m in lam[: len(row0)]), Decimal(0)), 1)]
    rows += [(d * value, m // d) for value, m in lam[len(row0) :]]
    return entropy(lam) - entropy(rows), saturated


@_exact
def finite_key_terms(
    family: str, d: int, q, mode: str, n_signals: int, n: int, m_check: int, eps_ec, params
) -> tuple[dict[str, Decimal], bool]:
    """The terms of r_N at sample sizes n (key) and m_check (each check
    basis) and params = (p01, eps_PA, eps_PE, eps_bar), by the names of
    `rates_finite.TERMS`, with r_N floored at 0, and whether the worst case
    saturates (then r_N is 0 and the terms mean nothing). n, m_check >= 1.

    I_E is taken at the check row shifted by xi(m_check), and for the
    (d+1)-basis family with the key row shifted by xi(n); H(q_key) at the
    nominal vector.
    """
    _, eps_pa, eps_pe, eps_bar = (Decimal(x) for x in params)
    check, saturated = shifted_vector(d, q, xi(m_check, d, eps_pe), mode)
    if family == "two-basis":
        holevo_worst = entropy(check)
    else:
        key, key_saturated = shifted_vector(d, q, xi(n, d, eps_pe), mode)
        holevo_worst, pair_saturated = ie_shared_check(d, key, check)
        saturated = saturated or key_saturated or pair_saturated
    terms = {
        "holevo_worst": holevo_worst,
        "h_ab": entropy(depolarizing_vector(d, q)),
        "ec_term": (1 - log2(Decimal(eps_ec))) / n,
        "pa_term": -2 * log2(eps_pa) / n,
        "smooth_term": (2 * _log2_int(d) + 3) * ((1 - log2(eps_bar)) / n).sqrt(),
    }
    rate = Decimal(n) / n_signals * (_log2_int(d) - sum(terms.values(), Decimal(0)))
    terms["r_n"] = Decimal(0) if saturated else max(rate, Decimal(0))
    return terms, saturated
