"""Independent reference implementations used as test oracles.

Everything here is written for clarity over speed and shares no code with
the package internals: the log likelihood is a per-event loop with an
explicit risk-set scan, derivatives come from finite differences of that
loop, and the chi-square tail is a hand-rolled series / continued
fraction, and survival times invert a cumulative hazard tabulated densely
on the whole grid.  Production outputs are compared against these, never
against themselves.
"""

import math

import numpy as np


def brute_loglik(dataset, basis_values, theta):
    """Partial log likelihood by direct risk-set scan.

    Tied event times share one denominator per distinct time (Breslow),
    which the per-event formulation below reproduces because tied events
    have identical risk sets and identical basis rows.
    """
    theta = np.asarray(theta, dtype=float)
    P = dataset.covariates.shape[1]
    K = theta.size // P
    theta = theta.reshape(P, K)
    total = 0.0
    for i in range(dataset.n):
        if dataset.status[i] != 1:
            continue
        b = basis_values[i]
        eta_i = float(dataset.covariates[i] @ (theta @ b))
        terms = []
        for j in range(dataset.n):
            if dataset.stratum[j] == dataset.stratum[i] and dataset.time[j] >= dataset.time[i]:
                terms.append(float(dataset.covariates[j] @ (theta @ b)))
        m = max(terms)
        total += eta_i - (m + math.log(sum(math.exp(v - m) for v in terms)))
    return total


def fd_gradient(f, theta, h=1e-5):
    """Central finite-difference gradient of a scalar function of theta."""
    theta = np.asarray(theta, dtype=float).ravel()
    g = np.empty(theta.size)
    for i in range(theta.size):
        step = h * max(1.0, abs(theta[i]))
        up, dn = theta.copy(), theta.copy()
        up[i] += step
        dn[i] -= step
        g[i] = (f(up) - f(dn)) / (2 * step)
    return g


def fd_hessian(grad, theta, h=1e-5):
    """Central finite differences of a gradient function; symmetrized."""
    theta = np.asarray(theta, dtype=float).ravel()
    H = np.empty((theta.size, theta.size))
    for i in range(theta.size):
        step = h * max(1.0, abs(theta[i]))
        up, dn = theta.copy(), theta.copy()
        up[i] += step
        dn[i] -= step
        H[:, i] = (grad(up) - grad(dn)) / (2 * step)
    return 0.5 * (H + H.T)


def brute_score_residuals(dataset, basis_values, theta):
    """Per-event score residuals (x_i - xbar_risk) kron B(T_i), event order."""
    theta = np.asarray(theta, dtype=float)
    P = dataset.covariates.shape[1]
    K = theta.size // P
    theta = theta.reshape(P, K)
    rows = []
    order = []
    for i in range(dataset.n):
        if dataset.status[i] != 1:
            continue
        b = basis_values[i]
        num = np.zeros(P)
        den = 0.0
        for j in range(dataset.n):
            if dataset.stratum[j] == dataset.stratum[i] and dataset.time[j] >= dataset.time[i]:
                w = math.exp(float(dataset.covariates[j] @ (theta @ b)))
                num += w * dataset.covariates[j]
                den += w
        rows.append(np.kron(dataset.covariates[i] - num / den, b))
        order.append(i)
    return np.array(order), np.array(rows)


def dense_ascent_lambda_max(gradient, block_hessians, neg_hess_mid):
    """lambda_max(H^{-1/2} (-hess_mid) H^{-1/2}) of the MMSA ascent certificate.

    H is block diagonal with blocks c_p (-hess_p), c_p = g_p' (-hess_p)^{-1} g_p,
    and H^{-1/2} is assembled as a dense PK x PK matrix from each block's
    eigendecomposition.  Returns None where H is singular: a block whose
    negated Hessian is not positive definite, or whose c_p is not positive.
    """
    P, K = block_hessians.shape[:2]
    inv_sqrt = np.zeros((P * K, P * K))
    for p in range(P):
        g = gradient[p * K:(p + 1) * K]
        lam, U = np.linalg.eigh(-block_hessians[p])
        if lam.min() <= 0:
            return None
        c_p = float(g @ (U @ ((U.T @ g) / lam)))
        if c_p <= 0:
            return None
        sl = slice(p * K, (p + 1) * K)
        inv_sqrt[sl, sl] = (U * (1.0 / np.sqrt(c_p * lam))) @ U.T
    M = inv_sqrt @ neg_hess_mid @ inv_sqrt
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[-1])


def chi2_upper_tail(x, df, iters=600):
    """P(chi2_df > x) via the lower-gamma series or upper continued fraction.

    Standard split at x < df + 2: series for the lower regularized gamma,
    Lentz continued fraction for the upper; absolute error well under
    1e-12 in the tested range.
    """
    a = df / 2.0
    z = x / 2.0
    if z == 0.0:
        return 1.0
    lg = math.lgamma(a)
    if z < a + 2.0:
        # lower series: P(a,z) = z^a e^-z sum z^n / Gamma(a+n+1)
        term = 1.0 / a
        total = term
        for n in range(1, iters):
            term *= z / (a + n)
            total += term
            if abs(term) < abs(total) * 1e-17:
                break
        lower = total * math.exp(-z + a * math.log(z) - lg)
        return 1.0 - lower
    # upper continued fraction (Lentz): Q(a,z) = z^a e^-z / CF
    tiny = 1e-300
    b = z + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, iters):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return h * math.exp(-z + a * math.log(z) - lg)


def bisect_maximum(f, lo, hi, tol=1e-12):
    """Maximize a smooth concave scalar function by bisecting on slope sign."""
    def slope(x, h=1e-7):
        return (f(x + h) - f(x - h)) / (2 * h)

    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if slope(mid) > 0:
            a = mid
        else:
            b = mid
        if b - a < tol:
            break
    return 0.5 * (a + b)


def _effect(tag, t, gamma):
    """The simulation's true effect beta(t) for one coefficient tag."""
    if tag.startswith("constant:"):
        return np.full_like(t, float(tag.split(":", 1)[1]))
    if tag == "sin_tv":
        return np.sin(3 * np.pi * t / 4)
    if tag == "poly_exp_tv":
        return -((t / 3.0) ** 2) * np.exp(t / 2.0)
    if tag == "gamma_sin_tv":
        return gamma * np.sin(3 * np.pi * t / 4)
    raise ValueError(tag)


def dense_survival_times(X, tags, gamma, u, *, grid_end=3.0, cap=3.0):
    """Death times solving Lambda(D) = -log u, with the whole grid tabulated.

    Hazard 0.5 exp(x' beta(t)); Lambda by trapezoid on a grid of step 1e-3,
    every subject on every grid point, 4096 subjects at a time; the first
    grid column with Lambda >= -log u brackets the draw, and bisection in
    that cell stops once every draw of the 4096 is within 1e-8.  Returns
    the draws and each draw's bracketing column j.
    """
    step, tol = 1e-3, 1e-8

    def hazard(t_rows, rows):
        eta = np.zeros(t_rows.shape)
        for p, tag in enumerate(tags):
            eta += X[rows, p] * _effect(tag, t_rows, gamma)
        return 0.5 * np.exp(eta)

    n = X.shape[0]
    tau = -np.log(np.clip(u, 1e-300, None))
    grid = np.arange(0.0, grid_end + step / 2, step)
    betas = np.vstack([_effect(tag, grid, gamma) for tag in tags])
    ceiling = grid_end if cap is None else cap
    D = np.empty(n)
    J = np.empty(n, dtype=np.intp)
    for start in range(0, n, 4096):
        rows = slice(start, min(start + 4096, n))
        lam = 0.5 * np.exp(X[rows] @ betas)
        Lam = np.concatenate(
            [np.zeros((lam.shape[0], 1)),
             np.cumsum((lam[:, 1:] + lam[:, :-1]) * (step / 2), axis=1)],
            axis=1)
        tau_c = tau[rows]
        beyond = Lam[:, -1] < tau_c
        j = np.argmax(Lam >= tau_c[:, None], axis=1)
        j[beyond] = Lam.shape[1] - 1
        j = np.maximum(j, 1)
        r = np.arange(lam.shape[0])
        t_left = grid[j - 1]
        Lam_left = Lam[r, j - 1]
        lam_left = lam[r, j - 1]
        lo, hi = t_left.copy(), grid[j]
        mid = 0.5 * (lo + hi)
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            lam_mid = hazard(mid, rows)
            F = Lam_left + (mid - t_left) * (lam_left + lam_mid) / 2 - tau_c
            if np.abs(F[~beyond]).max(initial=0.0) < tol:
                break
            takes_hi = F >= 0
            hi = np.where(takes_hi, mid, hi)
            lo = np.where(takes_hi, lo, mid)
        D_c = mid
        D_c[beyond] = ceiling
        D_c[tau_c == 0.0] = 0.0
        D[rows] = np.minimum(D_c, ceiling) if cap is not None else D_c
        J[rows] = j
    return D, J
