"""Damped least-squares fitting engine.

One engine serves every nonlinear fit in the toolkit: a bounded
Levenberg-Marquardt in numpy (More 1978; Madsen, Nielsen & Tingleff 2004),
analytic Jacobians where the model provides them, and a uniform result
record with Jacobian-based one-sigma uncertainties.  Equal bounds hold a
parameter, the one way a nested fit fixes one: the engine leaves it out of
the moving set and the error matrix, as MINUIT does (James & Roos 1975).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class FitError(RuntimeError):
    """Fit could not produce a trustworthy result.

    ``diagnostics`` carries whatever is known at failure time (best
    parameters so far, cost, iteration count, reason).
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class DegenerateFitWarning(UserWarning):
    """Model converged but the result is structurally degenerate."""


@dataclass
class FitResult:
    """Parameter estimates with 1-sigma uncertainties from one fit.

    ``residual_norm`` is the Euclidean norm of the weighted residuals
    (sqrt(chi^2) when per-point sigmas were given).  ``sigmas`` come from
    the Jacobian at the solution: cov = (J^T J)^-1, scaled by the reduced
    chi^2 when no data sigmas were supplied.
    """

    model: str
    params: dict[str, float]
    sigmas: dict[str, float]
    residual_norm: float
    converged: bool
    iterations: int
    diagnostics: dict = field(default_factory=dict)

    def __getitem__(self, name: str) -> float:
        return self.params[name]

    @property
    def chi2(self) -> float:
        return self.residual_norm**2

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "params": {k: {"value": v, "sigma": self.sigmas.get(k)} for k, v in self.params.items()},
            "residual_norm": self.residual_norm,
            "chi2": self.chi2,
            "converged": self.converged,
            "iterations": self.iterations,
            "diagnostics": {k: v for k, v in self.diagnostics.items() if _jsonable(v)},
        }


def _jsonable(v) -> bool:
    return isinstance(v, (str, int, float, bool, type(None), list, dict))


def covariance_from_jacobian(jac: np.ndarray, scale: float = 1.0) -> tuple[np.ndarray, float]:
    """(covariance, condition number) from a weighted Jacobian via SVD.

    Singular directions get pseudo-inverted with a relative cutoff, which
    surfaces near-degenerate parameter combinations as very large (but
    finite) uncertainties instead of a crash.
    """
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    if s[0] == 0.0:
        raise FitError("Jacobian is identically zero", {"singular_values": s.tolist()})
    cond = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
    cutoff = s[0] * 1e-14
    s_inv2 = np.where(s > cutoff, 1.0 / np.maximum(s, cutoff) ** 2, 1.0 / cutoff**2)
    cov = (vt.T * s_inv2) @ vt * scale
    return cov, cond


_SQRT_EPS = np.sqrt(np.finfo(float).eps)
_STATUS = {
    0: "maximum number of function evaluations exhausted",
    1: "gtol: the projected gradient vanished",
    2: "ftol: the cost stopped falling",
    3: "xtol: the step became negligible",
}


def _fd_jacobian(residual, p, r, lo, hi):
    """2-point forward differences, each step flipped where it would leave the box."""
    h = _SQRT_EPS * np.where(p >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(p))
    leaves = (p + h < lo) | (p + h > hi)
    h = np.where(leaves & (np.abs(h) <= np.maximum(p - lo, hi - p)), -h, h)
    jac = np.empty((r.size, p.size))
    for i in range(p.size):
        q = p.copy()
        q[i] += h[i]
        jac[:, i] = (residual(q) - r) / (q[i] - p[i])
    return jac


def _levenberg_marquardt(residual, jacobian, p, lo, hi, max_nfev, r_zero, tol=1e-13, noise=0.0):
    """Bounded Levenberg-Marquardt from ``p``: (p, r, J, nfev, status, zero_residual).

    Columns are scaled by the running maximum of their norms (More 1978) and
    the damping follows Nielsen's rule.  A parameter sitting on a bound with
    its gradient pointing out of the box is frozen for the iteration; the
    others take the damped Gauss-Newton step from one SVD (reused across
    damping retries), clipped to the box, and the gain ratio is that of the
    clipped step.  ftol holds when both the actual and the predicted
    reduction fall below tol * cost (More's rule), or when both the |actual|
    and the predicted one fall below ``noise`` * cost: a step that changes
    the cost, up or down, by no more than the residual's rounding noise
    ends the iteration too, at the better of the two points.  ``nfev``
    counts residual evaluations only.
    """
    r = residual(p)
    if not np.all(np.isfinite(r)):
        raise ValueError("residuals are not finite at the initial guess")
    nfev, cost, jac = 1, 0.5 * r @ r, jacobian(p, r)
    col_scale = np.zeros(p.size)
    mu, nu = 1e-3, 2.0  # 1e-3 x the largest diagonal of the scaled J^T J, which starts at 1
    while True:
        col_scale = np.maximum(col_scale, np.linalg.norm(jac, axis=0))
        d = np.where(col_scale > 0, col_scale, 1.0)
        g = jac.T @ r
        free = ~(((p <= lo) & (g > 0)) | ((p >= hi) & (g < 0)))
        if np.sqrt(2.0 * cost) <= r_zero:
            return p, r, jac, nfev, 2, True
        if np.max(np.abs(g[free]), initial=0.0) < tol:
            return p, r, jac, nfev, 1, False
        if nfev >= max_nfev:
            return p, r, jac, nfev, 0, False
        u, s, vt = np.linalg.svd(jac[:, free] / d[free], full_matrices=False)
        ur = u.T @ r
        while True:
            step = np.zeros(p.size)
            step[free] = -(vt.T @ (s / (s**2 + mu) * ur)) / d[free]
            step = np.clip(p + step, lo, hi) - p
            r_new = residual(p + step)
            nfev += 1
            cost_new = 0.5 * r_new @ r_new
            js = jac @ step
            predicted = -(g @ step + 0.5 * js @ js)
            reduction = cost - cost_new if np.isfinite(cost_new) else -np.inf
            rho = reduction / predicted if predicted > 0 else 0.0
            xtol_hit = np.linalg.norm(step) < tol * (tol + np.linalg.norm(p))
            noise_hit = max(abs(reduction), predicted) < noise * cost
            if reduction > 0:
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                nu = 2.0
                ftol_hit = max(reduction, predicted) < tol * cost or noise_hit
                p, r, cost = p + step, r_new, cost_new
                jac = jacobian(p, r)
                if ftol_hit or xtol_hit:
                    return p, r, jac, nfev, 2 if ftol_hit else 3, False
                break
            if noise_hit:
                return p, r, jac, nfev, 2, False
            mu *= nu
            nu *= 2.0
            if xtol_hit:
                return p, r, jac, nfev, 3, False
            if nfev >= max_nfev:
                return p, r, jac, nfev, 0, False


def lm_fit(
    model,
    x,
    y,
    p0,
    sigma=None,
    bounds=None,
    jac=None,
    names: list[str] | None = None,
    model_id: str = "custom",
    max_nfev: int | None = None,
    noise: float = 0.0,
) -> FitResult:
    """Least-squares fit of ``model(x, *p)`` to ``y``.

    Parameters
    ----------
    model : callable
        ``model(x, *params) -> ndarray`` of predictions.  ``x`` is passed
        through untouched, so it may be any structure the model understands.
    x, y : array_like
        Abscissa (opaque to the engine) and data values.
    p0 : sequence of float
        Initial parameter values; must satisfy ``bounds``.
    sigma : array_like, optional
        Per-point 1-sigma uncertainties.  When given, uncertainties are
        absolute; when omitted, the covariance is scaled by the reduced
        chi^2 of the solution.
    bounds : (lo, hi), optional
        Box bounds per parameter (use +-inf for unbounded).  Equal bounds
        hold a parameter at that value: the engine moves only the others,
        and the result reports it with sigma 0, a zero row and column in
        the covariance, and its name in ``diagnostics["fixed"]``.  The
        point count, the reduced chi^2 and the condition number count the
        free parameters only.
    jac : callable, optional
        ``jac(x, *params) -> (n_points, n_params)`` analytic Jacobian of the
        model, all parameters held or not.  Finite differences are used when
        omitted.
    names : list of str, optional
        Parameter names for the result record (defaults to p0..pN).
    noise : float
        Relative rounding noise of the cost, for a model whose residuals
        carry more of it than the engine's 1e-13 tolerance (an iterative
        root, say).  A step that changes the cost, up or down, by less than
        ``noise`` times the cost, with no more predicted, ends the iteration;
        otherwise the noise would decide its length.

    Raises
    ------
    FitError
        On precondition violations, iteration exhaustion or a singular
        Jacobian; diagnostics carry the best parameters found so far.
    """
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    y = np.asarray(y, dtype=float)
    n_par = p0.size
    if names is None:
        names = [f"p{i}" for i in range(n_par)]
    if len(names) != n_par:
        raise FitError("names/parameter count mismatch")

    if bounds is None:
        lo = np.full(n_par, -np.inf)
        hi = np.full(n_par, np.inf)
    else:
        lo = np.asarray(bounds[0], dtype=float) * np.ones(n_par)
        hi = np.asarray(bounds[1], dtype=float) * np.ones(n_par)
    if np.any(p0 < lo) or np.any(p0 > hi):
        raise FitError("initial guess lies outside the bounds")
    # the engine moves the free parameters only; model and jac see them all
    free = lo < hi
    n_free = int(free.sum())
    held = n_free < n_par
    if n_free == 0:
        raise FitError("equal bounds hold every parameter")
    if y.size <= n_free:
        raise FitError(f"need more data points ({y.size}) than parameters ({n_free})")

    def full(q):
        p = p0.copy()
        p[free] = q
        return p

    if sigma is not None:
        sig_arr = np.asarray(sigma, dtype=float)
        if np.any(~np.isfinite(sig_arr)) or np.any(sig_arr <= 0):
            raise FitError("sigma values must be positive and finite")
        w = 1.0 / sig_arr
    else:
        w = None

    p0_free, lo, hi = p0[free], lo[free], hi[free]

    def residual(q):
        r = model(x, *full(q)) - y
        return r * w if w is not None else r

    if jac is not None:

        def jacobian(q, r):
            j = np.asarray(jac(x, *full(q)), dtype=float)
            # selecting columns copies J into a new layout, which moves the
            # SVD by rounding, so a fit with nothing held skips it
            if held:
                j = j[:, free]
            return j * w[:, None] if w is not None else j

    else:

        def jacobian(q, r):
            return _fd_jacobian(residual, q, r, lo, hi)

    r_zero = 1e-10 * np.linalg.norm(y * w if w is not None else y)
    p_fit, r_fit, j_fit, nfev, status, zero_stop = _levenberg_marquardt(
        residual, jacobian, p0_free, lo, hi, max_nfev if max_nfev is not None else 5000, r_zero, noise=noise)
    cost_fit = 0.5 * r_fit @ r_fit

    zero_residual = np.sqrt(2.0 * cost_fit / y.size) < 1e-8
    if status == 0 and not zero_residual:
        # a numerically zero residual with iterations left over is not a
        # failure: noiseless data can leave a flat parameter ridge (e.g. an
        # IRF width below the data resolution) that no tolerance terminates
        raise FitError(
            _STATUS[0],
            {
                "best_params": dict(zip(names, full(p_fit).tolist())),
                "cost": float(cost_fit),
                "nfev": nfev,
            },
        )

    # one Gauss-Newton polish step: exact for linear models, and sharpens
    # the damped iteration's endpoint to machine precision near any minimum
    x_best, cost_best = p_fit, cost_fit
    try:
        step, *_ = np.linalg.lstsq(j_fit, -r_fit, rcond=None)
        cand = np.clip(p_fit + step, lo, hi)
        r_cand = residual(cand)
        if np.all(np.isfinite(r_cand)):
            cost_cand = 0.5 * r_cand @ r_cand
            # a tiny step near convergence may improve the cost by less
            # than float resolution; accept it anyway (the linearized cost
            # never increases, and curvature error is O(step^2))
            tiny = np.linalg.norm(step) <= 1e-6 * (1.0 + np.linalg.norm(p_fit))
            if cost_cand < cost_best or (tiny and cost_cand <= cost_best * (1 + 1e-12)):
                x_best, cost_best = cand, cost_cand
    except np.linalg.LinAlgError:
        pass

    scale = 2.0 * cost_best / max(y.size - n_free, 1) if sigma is None else 1.0
    cov, cond = covariance_from_jacobian(j_fit, scale)
    if held:
        cov_free, cov = cov, np.zeros((n_par, n_par))
        cov[np.ix_(free, free)] = cov_free
    sig = np.sqrt(np.maximum(np.diag(cov), 0.0))

    return FitResult(
        model=model_id,
        params=dict(zip(names, full(x_best).tolist())),
        sigmas=dict(zip(names, sig.tolist())),
        residual_norm=float(np.sqrt(2.0 * cost_best)),
        converged=True,
        iterations=nfev,
        diagnostics={
            "status": status,
            "message": _STATUS[status],
            "jacobian_condition": cond,
            "covariance": cov.tolist(),
            **({"fixed": [n for n, f in zip(names, free) if not f]} if held else {}),
            **({"zero_residual_termination": True} if zero_stop or status == 0 else {}),
        },
    )
