"""Fault matrix: which checks of `verify all` each named fault fails.

Each entry of FAULTS is one fault at one site: a `--corrupt` mapping, or a
monkeypatch of one attribute (a function, method, constant or class) of one
module.  A patched module-level name is seen by the code that looks it up in
that module, so `exponents.leg_weight` changes what `exponents` computes and
not the callers that imported the name.  Every fault runs `verify all` at
kappa = 6 and 2 with the defaults of `nullstate verify all --kappa K`.

MATRIX is the committed result: per fault, the sorted names of the checks
that fail at kappa = 6 and at kappa = 2.  Read a row as what one fault costs
the suite, and a column as the faults one check catches.  Every fault fails
some check, and every check fails under some fault or is named in UNCOVERED
with the reason none does.

The census.  Pool each check's caught set over both kappa.  No check's set
lies inside another's, unless TWINS names the pair as one identity's two
oracles and says why both stay.  A check that showed no fault of its own was
deleted.  The map gives each identity and its oracles, the checks that test
it; in brackets, the row that keeps a check, a fault that it catches and the
checks whose sets held its own miss.

- The KPZ roots delta_pm(d) of the indicial equation:
  exponents.kpz_leg_identity_residual, the fusion identity at the leg weights
  (leg_weight: theta_s + 1e-6 for s >= 2), and
  exponents.vieta_product_residual, Vieta's product, also at weights no leg
  identity reads (KpzPair: delta_plus clipped at 0).
- P_n from the recurrence, in the standard normalization:
  jacobi.recurrence_vs_gamma_sum, the explicit gamma sum and the one oracle of
  the normalization (P_n and h_n rescaled together), and
  jacobi.parameter_symmetry, the one check with alpha < beta (|b0|).
- P_n and its derivatives solve the Jacobi equation:
  jacobi.operator_eigen_residual (NaN at degree 5), and, through the sigma
  modes, green.sigma_eigenfunction_residual.
- The spectral expansion <K(rho, ., t), P_n> = exp(-t mu_n) P_n(rho) on the
  120-node rule: kernel.single_mode_decay at n = 0, 1, 3, 6 and t = 0.05, 0.5
  (decay_rate: index n + 1), and kernel.mass_conservation at n = 0 over the t
  list, whose smallest t sums degrees 30 and up (b1 from degree 30).
  green.reproducing_mass_identity reads n = 0 through G.
- A point value of K: kernel.symmetry, which compares the two readers of K,
  `value` at (rho, sigma) against a `grid` cell at (sigma, rho) (value minus
  the n = 0 mode; grid: drops the n = 0 mode; grid: rhos + 1e-7), and
  green.greenfunc_vs_greenfuncalt, which reads `value` through G.  G's
  adjoint residual reads `grid` at per-cell times, its boundary fits at one.
- K -> 1 / h_0 as t -> oo: kernel.long_time_limit (value minus the n = 0
  mode; greenfunc_vs_greenfuncalt also fails).
- K -> delta as t -> 0: kernel.reproducing_error_monotone (t floored at 1e-2).
- The two-sided Gaussian bound: kernel.bound_two_sided_on_grid (every scan
  point unresolved).
- J inverts the peeled Euler operator: green.j_euler_annihilation from J's
  closed-form slope (slope x (1 + 1e-6)) and green.j_euler_annihilation_fd
  from J's values (the findiff stencils).  J's jump at coincidence:
  green.j_coincidence_slope (J's value x (1 + 1e-6)).
- G: green.greenfunc_vs_greenfuncalt, its factored form against its series
  (lambda0); green.adjoint_residual_homogeneous, the adjoint equation (the
  theta_1 term of Q*, with the sigma modes); green.sigma_decay_exponent_left
  and green.sigma_decay_exponent_right, its boundary exponents (the
  prefactor's sigma^0.2 and (1 - sigma)^0.2); green.reproducing_mass_identity,
  the reproduction of f (the transformed f x sigma^0.2).
- The null-state and Ward system: pde.system_residuals_sweep on one-leg
  weights, and pde.two_point_ward_witness, the one reader of an anomalous
  weight h (WeightAssignment.weight: h ignored).  Its stencil:
  pde.stencil_vs_analytic (the partials x (1 + 1e-7)).  The sweep's array
  assembly of a batch: pde.system_residuals_sweep alone (its first
  translation term x (1 + 1e-5), at kappa = 2).  n1's scale:
  pde.n1_collapse_normalization (n1 x 2).
- Collapse fits: asymptotics.n1_collapse_exponent (the slope fit),
  asymptotics.decomposition_fit (a delta_plus channel),
  asymptotics.two_leg_two_term, and the two-leg margins asymptotics.two_leg_margin_plus (MODEL_TOL) and
  asymptotics.two_leg_margin_minus (TWO_LEG_TOL).
- The pair bounds along delta: asymptotics.far_pair_bounded (SLOPE_TOL =
  -0.005) and asymptotics.far_pair_violation_flagged.  Along eps:
  asymptotics.adjacent_normalized_ratio_constant (the field x (1 + 1e-6)),
  asymptotics.adjacent_eps_exponent and asymptotics.adjacent_violation_flagged
  (the eps slope ignored).

No row does not mean no fault.  These faults fail no `verify` check, and a
Tier-1 test catches each:
- asymptotics.A_ROUNDOFF = 1e-3:
  test_asymptotics.py::test_two_leg_round_off_floor_is_tight;
- HeatKernel._tail_bound x 1e-3 or x 1e3:
  test_heat_kernel.py::test_certified_tail_is_honest_and_first;
- a HeatKernel column (`_growth`, `_shrink`, `_step` or `_rate`) x (1 + 1e-3):
  test_heat_kernel.py::test_truncation_index_is_the_reference_loop_bit_for_bit.
"""

import numpy as np
import pytest

from nullstate import asymptotics as asym
from nullstate import checks, cli, exponents, findiff, green, heat_kernel, jacobi, pde

KAPPAS = (6.0, 2.0)


def _defaults(kappa: float) -> dict:
    """run_suite's arguments for `nullstate verify all --kappa K`."""
    return cli.suite_arguments(
        cli.build_parser().parse_args(["verify", "all", "--kappa", repr(kappa)]))


ARGS = {kappa: _defaults(kappa) for kappa in KAPPAS}


def failing(kappa: float, corrupt: dict) -> tuple:
    results = checks.run_suite("all", kappa, **{**ARGS[kappa], "corrupt": corrupt})
    return tuple(sorted(c.name for c in results if not c.passed))


def _wrap(owner, name, make):
    """A patch that replaces owner.name by make(the original)."""
    return lambda mp: mp.setattr(owner, name, make(getattr(owner, name)))


def _set(owner, name, value):
    return lambda mp: mp.setattr(owner, name, value)


def _recurrence(change):
    """A patch of the Jacobi recurrence columns (a, b0, b1, c)."""
    return _wrap(jacobi, "_recurrence_coefficients",
                 lambda f: lambda *args: change(*f(*args)))


def _from_degree(n0, change):
    """A patch of the Jacobi recurrence columns at degrees n >= n0 only."""
    def make(f):
        def columns(n_lo, n_hi, alpha, beta):
            cols = f(n_lo, n_hi, alpha, beta)
            late = np.arange(n_lo, n_hi) >= n0
            return [np.where(late, new, old) for new, old in zip(change(*cols), cols)]
        return columns
    return _wrap(jacobi, "_recurrence_coefficients", make)


def _renormalized(c):
    """P_n scaled by c and h_n by c^2, which every identity homogeneous in P_n keeps."""
    def patch(mp):
        _wrap(jacobi.JacobiBasis, "eval_table",
              lambda f: lambda self, n_max, y: f(self, n_max, y) * c)(mp)
        _wrap(jacobi.JacobiBasis, "norm_sq", lambda f: lambda self, n: f(self, n) * c * c)(mp)
    return patch


def _scaled_field(c, make):
    """A patch of a field builder: the field's value times c."""
    def build(*args, **kwargs):
        F = make(*args, **kwargs)
        return pde.CandidateFunction(F.name, lambda xs: c * F.func(xs), F.arity, F.grad, F.second)
    return build


def _theta1_offset(module, offset):
    return _wrap(module, "leg_weight",
                 lambda f: lambda s, kappa: f(s, kappa) + (offset if s == 1 else 0.0))


def _q_theta1(f):
    def terms(self, g0, g1, g2, sigma):
        out = f(self, g0, g1, g2, sigma)
        out[2] += 1e-2 / sigma**2 * g0
        return out
    return terms


def _swap_boundary_exponents(f):
    def init(self, *args, **kwargs):
        f(self, *args, **kwargs)
        self.exp_left, self.exp_right = self.exp_right, self.exp_left
    return init


def _biased_slope(f):
    def fit(eff, vals):
        est = f(eff, vals)
        return asym.ExponentEstimate(p_hat=est.p_hat + 1e-2, stderr=est.stderr)
    return fit


def _scaled_partials(f):
    def stencil(F, X, hs, arrays):
        fs, grads, seconds = f(F, X, hs, arrays)
        if arrays:
            return fs, grads * (1.0 + 1e-7), seconds * (1.0 + 1e-7)
        return (fs, [[g * (1.0 + 1e-7) for g in row] for row in grads],
                [[s * (1.0 + 1e-7) for s in row] for row in seconds])
    return stencil


def _scaled_first_translation_term(f):
    def terms(*args):
        nulls, translation, dilation, conformal = f(*args)
        translation = translation.copy()  # the partials, which the other terms read too
        translation[:, 0] *= 1.0 + 1e-5
        return nulls, translation, dilation, conformal
    return terms


def _biased_line(f):
    def fit(x, y):
        a, b, *rest = f(x, y)
        return (a, b + 1e-2, *rest)
    return fit


def _nan_at(cell):
    """A patch of a function with an array result: NaN at its flat index cell(size)."""
    def make(f):
        def g(*args, **kwargs):
            out = np.array(f(*args, **kwargs), dtype=float)
            out.flat[cell(out.size)] = np.nan
            return out
        return g
    return make


def _half_terms(f):
    def index(self, t):
        n_terms, tail = f(self, t)
        return max(1, n_terms // 2), tail
    return index


# name -> (corrupt mapping, patch or None)
FAULTS = {
    "corrupt alpha=1e-3": ({"alpha": 1e-3}, None),
    "corrupt beta=1e-3": ({"beta": 1e-3}, None),
    "corrupt lambda0=1e-6": ({"lambda0": 1e-6}, None),
    "exponents.KpzPair: delta_plus + 1e-3": ({}, _wrap(
        exponents, "KpzPair", lambda cls: lambda delta_minus, delta_plus, gap:
        cls(delta_minus, delta_plus + 1e-3, gap))),
    # at kappa = 2 only the weight floor + 0.1 of vieta_product_residual is negative
    "exponents.KpzPair: delta_plus clipped at 0": ({}, _wrap(
        exponents, "KpzPair", lambda cls: lambda delta_minus, delta_plus, gap:
        cls(delta_minus, max(delta_plus, 0.0), gap))),
    "exponents.delta_plus: the minus root": ({}, _set(
        exponents, "delta_plus", exponents.delta_minus)),
    "exponents.leg_weight: theta_1 + 5e-4": ({}, _theta1_offset(exponents, 5e-4)),
    "exponents.leg_weight: theta_s + 1e-6 for s >= 2": ({}, _wrap(
        exponents, "leg_weight",
        lambda f: lambda s, kappa: f(s, kappa) + (1e-6 if s >= 2 else 0.0))),
    "jacobi recurrence: b1 x (1 + 1e-4)": ({}, _recurrence(
        lambda a, b0, b1, c: [a, b0, b1 * (1.0 + 1e-4), c])),
    "jacobi recurrence: b0 + 1e-4 b1": ({}, _recurrence(
        lambda a, b0, b1, c: [a, b0 + 1e-4 * b1, b1, c])),
    # the defaults all have alpha > beta; only the flipped basis of parameter_symmetry has not
    "jacobi recurrence: |b0|": ({}, _recurrence(lambda a, b0, b1, c: [a, abs(b0), b1, c])),
    # degrees that only the sums at t = 1e-3 reach
    "jacobi recurrence: b1 x (1 + 1e-4) from degree 30": ({}, _from_degree(
        30, lambda a, b0, b1, c: [a, b0, b1 * (1.0 + 1e-4), c])),
    "JacobiBasis: P_n x (1 + 1e-6), h_n x (1 + 1e-6)^2": ({}, _renormalized(1.0 + 1e-6)),
    "jacobi.log_beta: Gauss weights x e^1e-6": ({}, _wrap(
        jacobi, "log_beta", lambda f: lambda a, b: f(a, b) + 1e-6)),
    "jacobi._christoffel_sums: last term dropped": ({}, _wrap(
        jacobi, "_christoffel_sums", lambda f: lambda s, diag, off: f(s, diag, off[:-1]))),
    "jacobi.QuadratureRule: nodes + 1e-6": ({}, _wrap(
        jacobi, "QuadratureRule", lambda cls: lambda nodes, weights:
        cls(nodes + 1e-6, weights))),
    "JacobiBasis.norm_sq: x (1 + 1e-6)": ({}, _wrap(
        jacobi.JacobiBasis, "norm_sq", lambda f: lambda self, n: f(self, n) * (1.0 + 1e-6))),
    "JacobiBasis.deriv: x (1 + 1e-4)": ({}, _wrap(
        jacobi.JacobiBasis, "deriv",
        lambda f: lambda self, n, y, order=1: f(self, n, y, order) * (1.0 + 1e-4))),
    "JacobiBasis.operator_residual: NaN at degree 5": ({}, _wrap(
        jacobi.JacobiBasis, "operator_residual", _nan_at(lambda size: 5))),
    "HeatKernel.decay_rate: index n + 1": ({}, _wrap(
        heat_kernel.HeatKernel, "decay_rate", lambda f: lambda self, n: f(self, n + 1))),
    "HeatKernel.truncation_index: half the terms": ({}, _wrap(
        heat_kernel.HeatKernel, "truncation_index", _half_terms)),
    "HeatKernel.value: rho + 1e-7": ({}, _wrap(
        heat_kernel.HeatKernel, "value", lambda f: lambda self, rho, sigma, t, n_terms=None:
        f(self, rho + 1e-7, sigma, t, n_terms))),
    "HeatKernel.value: minus the n = 0 mode": ({}, _wrap(
        heat_kernel.HeatKernel, "value", lambda f: lambda self, rho, sigma, t, n_terms=None:
        (kv := f(self, rho, sigma, t, n_terms))._replace(value=kv.value - 1.0 / self._nrm[0]))),
    # the one site where `value` and `grid` sum the series
    "HeatKernel._sum: x (1 + 1e-6)": ({}, _wrap(
        heat_kernel.HeatKernel, "_sum",
        lambda f: lambda self, t, left, right: f(self, t, left, right) * (1.0 + 1e-6))),
    "HeatKernel.grid: drops the n = 0 mode": ({}, _wrap(
        heat_kernel.HeatKernel, "grid", lambda f: lambda self, rhos, sigmas, t, n_terms=None:
        f(self, rhos, sigmas, t, n_terms) - 1.0 / self._nrm[0])),
    "HeatKernel.grid: t floored at 1e-2": ({}, _wrap(
        heat_kernel.HeatKernel, "grid", lambda f: lambda self, rhos, sigmas, t, n_terms=None:
        f(self, rhos, sigmas, np.maximum(t, 1e-2), n_terms))),
    "HeatKernel.grid: NaN at the middle cell": ({}, _wrap(
        heat_kernel.HeatKernel, "grid", _nan_at(lambda size: size // 2))),
    "HeatKernel.grid: rhos + 1e-7": ({}, _wrap(
        heat_kernel.HeatKernel, "grid", lambda f: lambda self, rhos, sigmas, t, n_terms=None:
        f(self, np.asarray(rhos) + 1e-7, sigmas, t, n_terms))),
    # every point of the bound scan unresolved
    "HeatKernel.cancellation_floor: x 1e12": ({}, _wrap(
        heat_kernel.HeatKernel, "cancellation_floor",
        lambda f: lambda self, t, n_terms: f(self, t, n_terms) * 1e12)),
    "OneIntervalGreen.value: x (1 + 1e-6)": ({}, _wrap(
        green.OneIntervalGreen, "value",
        lambda f: lambda self, delta, eta: f(self, delta, eta) * (1.0 + 1e-6))),
    "OneIntervalGreen.slope: x (1 + 1e-6)": ({}, _wrap(
        green.OneIntervalGreen, "slope",
        lambda f: lambda self, delta, eta: f(self, delta, eta) * (1.0 + 1e-6))),
    "OneIntervalGreen.gap: + 1e-6": ({}, _set(
        green.OneIntervalGreen, "gap", property(lambda self: self.pair.gap + 1e-6))),
    "TwoIntervalGreen: theta_1 term of Q* + 1e-2": ({}, _wrap(
        green.TwoIntervalGreen, "sigma_operator_terms", _q_theta1)),
    "TwoIntervalGreen: boundary exponents swapped": ({}, _wrap(
        green.TwoIntervalGreen, "__init__", _swap_boundary_exponents)),
    "TwoIntervalGreen._prefactor: x sigma^0.2": ({}, _wrap(
        green.TwoIntervalGreen, "_prefactor",
        lambda f: lambda self, rho, sigma: f(self, rho, sigma) * sigma**0.2)),
    "TwoIntervalGreen._prefactor: x sigma^1e-6": ({}, _wrap(
        green.TwoIntervalGreen, "_prefactor",
        lambda f: lambda self, rho, sigma: f(self, rho, sigma) * sigma**1e-6)),
    "TwoIntervalGreen._prefactor: x (1 - sigma)^0.2": ({}, _wrap(
        green.TwoIntervalGreen, "_prefactor",
        lambda f: lambda self, rho, sigma: f(self, rho, sigma) * (1.0 - sigma)**0.2)),
    "TwoIntervalGreen._transformed: x sigma^0.2": ({}, _wrap(
        green.TwoIntervalGreen, "_transformed",
        lambda f: lambda self, fn, sigma: f(self, fn, sigma) * sigma**0.2)),
    "pde.leg_weight: theta_1 + 1e-2": ({}, _theta1_offset(pde, 1e-2)),
    "WeightAssignment.weight: theta_1 + 1e-4": ({}, _wrap(
        pde.WeightAssignment, "weight",
        lambda f: lambda self, i: f(self, i) + (0.0 if i == self.iota else 1e-4))),
    # only the two-point witness gives the anomalous index a weight h other than theta_1
    "WeightAssignment.weight: h ignored": ({}, _set(
        pde.WeightAssignment, "weight", lambda self, i: self.theta1)),
    # x 2 is exact, so every residual keeps its relative size bit for bit
    "pde.builtin_n1: x 2": ({}, _wrap(pde, "builtin_n1", lambda f: _scaled_field(2.0, f))),
    "pde.STEP_FACTOR = 5e-2": ({}, _set(pde, "STEP_FACTOR", 5e-2)),
    "findiff.second: centre coefficient -30 (1 + 1e-7)": ({}, _wrap(
        findiff, "second", lambda f: lambda f0, w, h: f(f0, w, h) - 2.5e-7 * f0 / (h * h))),
    "findiff.first: coefficient 8 x (1 + 1e-2)": ({}, _wrap(
        findiff, "first", lambda f: lambda w, h: f(w, h) + 8e-2 * (w[2] - w[1]) / (12.0 * h))),
    "pde._stencil: partials x (1 + 1e-7)": ({}, _wrap(pde, "_stencil", _scaled_partials)),
    # the sweep's 100 configurations take the array assembly; every other reader is one row
    "pde._batch_terms: first translation term x (1 + 1e-5)": ({}, _wrap(
        pde, "_batch_terms", _scaled_first_translation_term)),
    "asymptotics._slope_fit: exponent + 1e-2": ({}, _wrap(asym, "_slope_fit", _biased_slope)),
    "findiff.line_fit: slope + 1e-2": ({}, _wrap(findiff, "line_fit", _biased_line)),
    "asymptotics.MODEL_TOL = 1": ({}, _set(asym, "MODEL_TOL", 1.0)),
    "asymptotics.TWO_LEG_TOL = -0.1": ({}, _set(asym, "TWO_LEG_TOL", -0.1)),
    "asymptotics.STDERR_MAX = 0": ({}, _set(asym, "STDERR_MAX", 0.0)),
    "asymptotics.SLOPE_TOL = -0.005": ({}, _set(asym, "SLOPE_TOL", -0.005)),
    "asymptotics.SLOPE_TOL = 1": ({}, _set(asym, "SLOPE_TOL", 1.0)),
    # the far-pair field diverges along delta, the adjacent one along eps
    "PairScanResult.divergent: eps slope ignored": ({}, _set(
        asym.PairScanResult, "divergent",
        property(lambda self: self.delta_slope < -asym.SLOPE_TOL))),
    "asymptotics.delta_plus: the minus root": ({}, _set(asym, "delta_plus", asym.delta_minus)),
    "asymptotics.kpz: gap + 1e-2": ({}, _wrap(
        asym, "kpz", lambda f: lambda d, kappa: f(d, kappa)._replace(gap=f(d, kappa).gap + 1e-2))),
    "asymptotics.manufactured_adjacent: x (1 + 1e-6)": ({}, _wrap(
        asym, "manufactured_adjacent", lambda f: _scaled_field(1.0 + 1e-6, f))),
    # the field gains a delta_plus channel 1e-4 delta^dp(d): its B grows by 1e-4
    "asymptotics.manufactured_two_term: + 1e-4 delta^delta_plus": ({}, _wrap(
        asym, "manufactured_two_term",
        lambda f: lambda kappa, M, i, d, A, B: f(kappa, M, i, d, A, B + 1e-4))),
}


def _both(*names):
    """The same failing checks at both kappa."""
    return names, names


# fault -> (checks failing at kappa = 6, checks failing at kappa = 2)
MATRIX = {
    "corrupt alpha=1e-3": _both(
        "kernel.long_time_limit", "kernel.mass_conservation", "kernel.single_mode_decay"),
    "corrupt beta=1e-3": _both(
        "kernel.long_time_limit", "kernel.mass_conservation", "kernel.single_mode_decay"),
    "corrupt lambda0=1e-6": _both(
        "green.greenfunc_vs_greenfuncalt"),
    "exponents.KpzPair: delta_plus + 1e-3": (
        (
            "asymptotics.decomposition_fit", "asymptotics.two_leg_two_term",
            "exponents.kpz_leg_identity_residual", "exponents.vieta_product_residual",
            "green.adjoint_residual_homogeneous", "green.greenfunc_vs_greenfuncalt",
            "green.sigma_eigenfunction_residual",
        ),
        (
            "asymptotics.decomposition_fit", "exponents.kpz_leg_identity_residual",
            "exponents.vieta_product_residual", "green.adjoint_residual_homogeneous",
            "green.greenfunc_vs_greenfuncalt", "green.sigma_eigenfunction_residual",
        ),
    ),
    "exponents.KpzPair: delta_plus clipped at 0": (
        (),
        (
            "exponents.vieta_product_residual",
        ),
    ),
    "exponents.delta_plus: the minus root": _both(
        "green.adjoint_residual_homogeneous", "green.greenfunc_vs_greenfuncalt",
        "green.sigma_eigenfunction_residual"),
    "exponents.leg_weight: theta_1 + 5e-4": _both(
        "exponents.kpz_leg_identity_residual", "green.adjoint_residual_homogeneous",
        "green.sigma_eigenfunction_residual"),
    "exponents.leg_weight: theta_s + 1e-6 for s >= 2": _both(
        "exponents.kpz_leg_identity_residual"),
    "jacobi recurrence: b1 x (1 + 1e-4)": _both(
        "green.reproducing_mass_identity", "green.sigma_eigenfunction_residual",
        "jacobi.operator_eigen_residual", "jacobi.recurrence_vs_gamma_sum",
        "kernel.mass_conservation", "kernel.single_mode_decay"),
    "jacobi recurrence: b0 + 1e-4 b1": _both(
        "green.reproducing_mass_identity", "green.sigma_eigenfunction_residual",
        "jacobi.operator_eigen_residual", "jacobi.parameter_symmetry",
        "jacobi.recurrence_vs_gamma_sum", "kernel.bound_two_sided_on_grid",
        "kernel.mass_conservation", "kernel.single_mode_decay"),
    "jacobi recurrence: |b0|": _both(
        "jacobi.parameter_symmetry"),
    "jacobi recurrence: b1 x (1 + 1e-4) from degree 30": _both(
        "green.reproducing_mass_identity", "kernel.mass_conservation"),
    "JacobiBasis: P_n x (1 + 1e-6), h_n x (1 + 1e-6)^2": _both(
        "jacobi.recurrence_vs_gamma_sum"),
    "jacobi.log_beta: Gauss weights x e^1e-6": _both(
        "green.reproducing_mass_identity", "kernel.mass_conservation", "kernel.single_mode_decay"),
    "jacobi._christoffel_sums: last term dropped": _both(
        "green.reproducing_mass_identity", "kernel.mass_conservation",
        "kernel.reproducing_error_monotone", "kernel.single_mode_decay"),
    "jacobi.QuadratureRule: nodes + 1e-6": _both(
        "green.reproducing_mass_identity", "kernel.mass_conservation", "kernel.single_mode_decay"),
    "JacobiBasis.norm_sq: x (1 + 1e-6)": _both(
        "green.reproducing_mass_identity", "kernel.long_time_limit", "kernel.mass_conservation",
        "kernel.single_mode_decay"),
    "JacobiBasis.deriv: x (1 + 1e-4)": _both(
        "green.sigma_eigenfunction_residual", "jacobi.operator_eigen_residual"),
    "JacobiBasis.operator_residual: NaN at degree 5": _both(
        "jacobi.operator_eigen_residual"),
    "HeatKernel.decay_rate: index n + 1": _both(
        "kernel.single_mode_decay"),
    "HeatKernel.truncation_index: half the terms": _both(
        "kernel.bound_two_sided_on_grid", "kernel.single_mode_decay"),
    "HeatKernel.value: rho + 1e-7": _both(
        "green.greenfunc_vs_greenfuncalt", "kernel.symmetry"),
    "HeatKernel.value: minus the n = 0 mode": _both(
        "green.greenfunc_vs_greenfuncalt", "kernel.long_time_limit", "kernel.symmetry"),
    "HeatKernel._sum: x (1 + 1e-6)": _both(
        "green.greenfunc_vs_greenfuncalt", "green.reproducing_mass_identity",
        "kernel.long_time_limit", "kernel.mass_conservation", "kernel.single_mode_decay"),
    "HeatKernel.grid: drops the n = 0 mode": (
        (
            "green.adjoint_residual_homogeneous", "green.reproducing_mass_identity",
            "kernel.bound_two_sided_on_grid", "kernel.mass_conservation",
            "kernel.single_mode_decay", "kernel.symmetry",
        ),
        (
            "green.reproducing_mass_identity", "kernel.bound_two_sided_on_grid",
            "kernel.mass_conservation", "kernel.single_mode_decay", "kernel.symmetry",
        ),
    ),
    "HeatKernel.grid: t floored at 1e-2": _both(
        "kernel.reproducing_error_monotone"),
    "HeatKernel.grid: NaN at the middle cell": _both(
        "green.adjoint_residual_homogeneous", "green.reproducing_mass_identity",
        "green.sigma_decay_exponent_left", "green.sigma_decay_exponent_right",
        "kernel.bound_two_sided_on_grid", "kernel.mass_conservation",
        "kernel.reproducing_error_monotone", "kernel.single_mode_decay"),
    "HeatKernel.grid: rhos + 1e-7": _both(
        "kernel.single_mode_decay", "kernel.symmetry"),
    "HeatKernel.cancellation_floor: x 1e12": _both(
        "kernel.bound_two_sided_on_grid"),
    "OneIntervalGreen.value: x (1 + 1e-6)": _both(
        "green.j_coincidence_slope"),
    "OneIntervalGreen.slope: x (1 + 1e-6)": _both(
        "green.j_euler_annihilation"),
    "OneIntervalGreen.gap: + 1e-6": _both(
        "green.j_euler_annihilation", "green.j_euler_annihilation_fd"),
    "TwoIntervalGreen: theta_1 term of Q* + 1e-2": _both(
        "green.adjoint_residual_homogeneous", "green.sigma_eigenfunction_residual"),
    "TwoIntervalGreen: boundary exponents swapped": _both(
        "green.sigma_decay_exponent_left", "green.sigma_decay_exponent_right",
        "green.sigma_eigenfunction_residual"),
    "TwoIntervalGreen._prefactor: x sigma^0.2": _both(
        "green.adjoint_residual_homogeneous", "green.greenfunc_vs_greenfuncalt",
        "green.sigma_decay_exponent_left"),
    "TwoIntervalGreen._prefactor: x sigma^1e-6": _both(
        "green.greenfunc_vs_greenfuncalt"),
    "TwoIntervalGreen._prefactor: x (1 - sigma)^0.2": _both(
        "green.adjoint_residual_homogeneous", "green.greenfunc_vs_greenfuncalt",
        "green.sigma_decay_exponent_right"),
    "TwoIntervalGreen._transformed: x sigma^0.2": _both(
        "green.reproducing_mass_identity"),
    "pde.leg_weight: theta_1 + 1e-2": _both(
        "asymptotics.adjacent_eps_exponent", "asymptotics.adjacent_normalized_ratio_constant",
        "asymptotics.far_pair_bounded", "asymptotics.n1_collapse_exponent",
        "asymptotics.two_leg_two_term", "pde.n1_collapse_normalization",
        "pde.system_residuals_sweep", "pde.two_point_ward_witness"),
    "WeightAssignment.weight: theta_1 + 1e-4": _both(
        "pde.system_residuals_sweep", "pde.two_point_ward_witness"),
    "WeightAssignment.weight: h ignored": _both(
        "pde.two_point_ward_witness"),
    "pde.builtin_n1: x 2": _both(
        "pde.n1_collapse_normalization"),
    "pde.STEP_FACTOR = 5e-2": (
        (
            "pde.two_point_ward_witness",
        ),
        (
            "pde.system_residuals_sweep", "pde.two_point_ward_witness",
        ),
    ),
    "findiff.second: centre coefficient -30 (1 + 1e-7)": _both(
        "green.adjoint_residual_homogeneous", "green.j_euler_annihilation_fd",
        "pde.stencil_vs_analytic", "pde.system_residuals_sweep"),
    "findiff.first: coefficient 8 x (1 + 1e-2)": (
        (
            "green.adjoint_residual_homogeneous", "green.j_euler_annihilation_fd",
            "pde.stencil_vs_analytic", "pde.two_point_ward_witness",
        ),
        (
            "green.adjoint_residual_homogeneous", "green.j_euler_annihilation_fd",
            "pde.stencil_vs_analytic", "pde.system_residuals_sweep", "pde.two_point_ward_witness",
        ),
    ),
    "pde._stencil: partials x (1 + 1e-7)": _both(
        "pde.stencil_vs_analytic"),
    # n1 is constant at kappa = 6, so every translation term is 0 there
    "pde._batch_terms: first translation term x (1 + 1e-5)": (
        (),
        (
            "pde.system_residuals_sweep",
        ),
    ),
    "asymptotics._slope_fit: exponent + 1e-2": _both(
        "asymptotics.n1_collapse_exponent"),
    "findiff.line_fit: slope + 1e-2": _both(
        "asymptotics.adjacent_eps_exponent", "asymptotics.decomposition_fit",
        "asymptotics.n1_collapse_exponent"),
    "asymptotics.MODEL_TOL = 1": _both(
        "asymptotics.two_leg_margin_plus"),
    "asymptotics.TWO_LEG_TOL = -0.1": _both(
        "asymptotics.two_leg_margin_minus"),
    "asymptotics.STDERR_MAX = 0": _both(
        "asymptotics.two_leg_margin_minus", "asymptotics.two_leg_margin_plus"),
    "asymptotics.SLOPE_TOL = -0.005": _both(
        "asymptotics.far_pair_bounded"),
    "asymptotics.SLOPE_TOL = 1": (
        (
            "asymptotics.adjacent_violation_flagged", "asymptotics.far_pair_violation_flagged",
        ),
        (
            "asymptotics.adjacent_violation_flagged",
        ),
    ),
    "PairScanResult.divergent: eps slope ignored": _both(
        "asymptotics.adjacent_violation_flagged"),
    "asymptotics.delta_plus: the minus root": _both(
        "asymptotics.adjacent_eps_exponent", "asymptotics.far_pair_violation_flagged"),
    "asymptotics.kpz: gap + 1e-2": (
        (
            "asymptotics.decomposition_fit", "asymptotics.two_leg_two_term",
        ),
        (
            "asymptotics.decomposition_fit",
        ),
    ),
    "asymptotics.manufactured_adjacent: x (1 + 1e-6)": _both(
        "asymptotics.adjacent_normalized_ratio_constant"),
    "asymptotics.manufactured_two_term: + 1e-4 delta^delta_plus": _both(
        "asymptotics.decomposition_fit"),
}

# checks no fault above fails, and why
UNCOVERED = {}

# (check, the check whose caught set holds its own) -> why both stay
TWINS = {}


@pytest.fixture(autouse=True)
def fresh_rules():
    """No kept Gauss-Jacobi rule crosses a test: a rule built under a patch of
    `log_beta` or `_christoffel_sums` would answer later runs, and a clean one
    kept from earlier would hide the patch."""
    jacobi._gauss_jacobi.cache_clear()
    yield
    jacobi._gauss_jacobi.cache_clear()


def test_every_check_passes_without_a_fault():
    for kappa in KAPPAS:
        assert failing(kappa, {}) == ()


@pytest.mark.parametrize("name", FAULTS)
def test_fault_fails_exactly_its_row(name, monkeypatch):
    corrupt, patch = FAULTS[name]
    if patch is not None:
        patch(monkeypatch)
    assert tuple(failing(kappa, corrupt) for kappa in KAPPAS) == MATRIX[name]


def test_every_fault_fails_a_check_and_every_check_has_a_fault():
    assert list(MATRIX) == list(FAULTS)
    assert all(any(row) for row in MATRIX.values())
    names = {c.name for c in checks.run_suite("all", 6.0, **ARGS[6.0])}
    caught = {name for row in MATRIX.values() for at_kappa in row for name in at_kappa}
    assert caught | set(UNCOVERED) == names
    assert not caught & set(UNCOVERED)
    assert {key for corrupt, _ in FAULTS.values() for key in corrupt} == set(
        checks.SUPPORTED_CORRUPTIONS)


def test_no_caught_set_lies_inside_another_but_the_twins():
    caught = {}
    for fault, row in MATRIX.items():
        for at_kappa in row:
            for name in at_kappa:
                caught.setdefault(name, set()).add(fault)
    nested = {(a, b) for a in caught for b in caught if a != b and caught[a] <= caught[b]}
    assert nested == set(TWINS)
    assert all(TWINS.values())


def test_the_map_names_every_check():
    names = {c.name for c in checks.run_suite("all", 6.0, **ARGS[6.0])}
    assert {name for name in names if name not in __doc__} == set()
