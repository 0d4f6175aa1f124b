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
with the reason none does.  A check that no fault reaches, and whose faults
another check catches, is a candidate for deletion.
"""

import dataclasses

import pytest

from nullstate import asymptotics as asym
from nullstate import checks, exponents, findiff, green, heat_kernel, jacobi, pde

KAPPAS = (6.0, 2.0)


def _defaults(kappa: float) -> dict:
    h = exponents.leg_weight(2, kappa)
    params = exponents.jacobi_params(h, kappa)
    return dict(h=h, alpha=params.alpha, beta=params.beta, candidate="n1", n_configs=100,
                seed=0, t_list=(1e-3, 1e-2, 0.1, 1.0, 10.0))


ARGS = {kappa: _defaults(kappa) for kappa in KAPPAS}


def failing(kappa: float, corrupt: dict) -> tuple:
    results = checks.run_suite("all", kappa, corrupt=corrupt, **ARGS[kappa])
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
    def stencil(F, config, h):
        f0, grads, seconds = f(F, config, h)
        return f0, [g * (1.0 + 1e-7) for g in grads], [s * (1.0 + 1e-7) for s in seconds]
    return stencil


def _biased_line(f):
    def fit(x, y):
        a, b, *rest = f(x, y)
        return (a, b + 1e-2, *rest)
    return fit


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
    "exponents.delta_plus: the minus root": ({}, _set(
        exponents, "delta_plus", exponents.delta_minus)),
    "exponents.leg_weight: theta_1 + 5e-4": ({}, _theta1_offset(exponents, 5e-4)),
    "jacobi recurrence: b1 x (1 + 1e-4)": ({}, _recurrence(
        lambda a, b0, b1, c: [a, b0, b1 * (1.0 + 1e-4), c])),
    "jacobi recurrence: b0 + 1e-4 b1": ({}, _recurrence(
        lambda a, b0, b1, c: [a, b0 + 1e-4 * b1, b1, c])),
    "jacobi.log_beta: Gauss weights x e^1e-6": ({}, _wrap(
        jacobi, "log_beta", lambda f: lambda a, b: f(a, b) + 1e-6)),
    "jacobi.QuadratureRule: nodes + 1e-6": ({}, _wrap(
        jacobi, "QuadratureRule", lambda cls: lambda nodes, weights, domain:
        cls(nodes + 1e-6, weights, domain))),
    "JacobiBasis.norm_sq: x (1 + 1e-6)": ({}, _wrap(
        jacobi.JacobiBasis, "norm_sq", lambda f: lambda self, n: f(self, n) * (1.0 + 1e-6))),
    "JacobiBasis.deriv: x (1 + 1e-4)": ({}, _wrap(
        jacobi.JacobiBasis, "deriv",
        lambda f: lambda self, n, y, order=1: f(self, n, y, order) * (1.0 + 1e-4))),
    "HeatKernel.decay_rate: index n + 1": ({}, _wrap(
        heat_kernel.HeatKernel, "decay_rate", lambda f: lambda self, n: f(self, n + 1))),
    "HeatKernel.truncation_index: half the terms": ({}, _wrap(
        heat_kernel.HeatKernel, "truncation_index", _half_terms)),
    "HeatKernel.value: rho + 1e-7": ({}, _wrap(
        heat_kernel.HeatKernel, "value", lambda f: lambda self, rho, sigma, t, n_terms=None:
        f(self, rho + 1e-7, sigma, t, n_terms))),
    "HeatKernel.grid: drops the n = 0 mode": ({}, _wrap(
        heat_kernel.HeatKernel, "grid", lambda f: lambda self, rhos, sigmas, t, n_terms=None:
        f(self, rhos, sigmas, t, n_terms) - 1.0 / self._nrm[0])),
    "HeatKernel.grid: t floored at 1e-2": ({}, _wrap(
        heat_kernel.HeatKernel, "grid", lambda f: lambda self, rhos, sigmas, t, n_terms=None:
        f(self, rhos, sigmas, max(t, 1e-2), n_terms))),
    "OneIntervalGreen.value: x (1 + 1e-6)": ({}, _wrap(
        green.OneIntervalGreen, "value",
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
    "TwoIntervalGreen._transformed: x sigma^0.2": ({}, _wrap(
        green.TwoIntervalGreen, "_transformed",
        lambda f: lambda self, fn, sigma: f(self, fn, sigma) * sigma**0.2)),
    "pde.leg_weight: theta_1 + 1e-2": ({}, _theta1_offset(pde, 1e-2)),
    "WeightAssignment.weight: theta_1 + 1e-4": ({}, _wrap(
        pde.WeightAssignment, "weight",
        lambda f: lambda self, i: f(self, i) + (0.0 if i == self.iota else 1e-4))),
    "pde.STEP_FACTOR = 5e-2": ({}, _set(pde, "STEP_FACTOR", 5e-2)),
    "findiff.second: centre coefficient -30 (1 + 1e-7)": ({}, _wrap(
        findiff, "second", lambda f: lambda f0, w, h: f(f0, w, h) - 2.5e-7 * f0 / (h * h))),
    "findiff.first: coefficient 8 x (1 + 1e-2)": ({}, _wrap(
        findiff, "first", lambda f: lambda w, h: f(w, h) + 8e-2 * (w[2] - w[1]) / (12.0 * h))),
    "pde._stencil: partials x (1 + 1e-7)": ({}, _wrap(pde, "_stencil", _scaled_partials)),
    "asymptotics._slope_fit: exponent + 1e-2": ({}, _wrap(asym, "_slope_fit", _biased_slope)),
    "findiff.line_fit: slope + 1e-2": ({}, _wrap(findiff, "line_fit", _biased_line)),
    "asymptotics.MODEL_TOL = 1": ({}, _set(asym, "MODEL_TOL", 1.0)),
    "asymptotics.STDERR_MAX = 0": ({}, _set(asym, "STDERR_MAX", 0.0)),
    "asymptotics.SLOPE_TOL = -0.005": ({}, _set(asym, "SLOPE_TOL", -0.005)),
    "asymptotics.SLOPE_TOL = 1": ({}, _set(asym, "SLOPE_TOL", 1.0)),
    "asymptotics.delta_plus: the minus root": ({}, _set(asym, "delta_plus", asym.delta_minus)),
    "asymptotics.kpz: gap + 1e-2": ({}, _wrap(
        asym, "kpz", lambda f: lambda d, kappa: dataclasses.replace(
            f(d, kappa), gap=f(d, kappa).gap + 1e-2))),
}


def _both(*names):
    """The same failing checks at both kappa."""
    return names, names


# fault -> (checks failing at kappa = 6, checks failing at kappa = 2)
MATRIX = {
    "corrupt alpha=1e-3": _both(
        "kernel.long_time_limit", "kernel.mass_conservation", "kernel.semigroup",
        "kernel.single_mode_decay"),
    "corrupt beta=1e-3": _both(
        "kernel.long_time_limit", "kernel.mass_conservation", "kernel.semigroup",
        "kernel.single_mode_decay"),
    "corrupt lambda0=1e-6": _both(
        "green.greenfunc_vs_greenfuncalt"),
    "exponents.KpzPair: delta_plus + 1e-3": (
        (
            "asymptotics.decomposition_fit", "asymptotics.two_leg_two_term",
            "exponents.kpz_closed_form_residual", "exponents.kpz_leg_identity_residual",
            "exponents.lambda0_identity_residual", "exponents.vieta_product_residual",
            "exponents.vieta_sum_residual", "green.adjoint_residual_homogeneous",
            "green.greenfunc_vs_greenfuncalt", "green.sigma_eigenfunction_residual",
        ),
        (
            "asymptotics.decomposition_fit", "exponents.kpz_closed_form_residual",
            "exponents.kpz_leg_identity_residual", "exponents.lambda0_identity_residual",
            "exponents.vieta_product_residual", "exponents.vieta_sum_residual",
            "green.adjoint_residual_homogeneous", "green.greenfunc_vs_greenfuncalt",
            "green.sigma_eigenfunction_residual",
        ),
    ),
    "exponents.delta_plus: the minus root": _both(
        "exponents.eigenvalue_monotone", "exponents.lambda0_identity_residual",
        "green.adjoint_residual_homogeneous", "green.greenfunc_vs_greenfuncalt",
        "green.sigma_eigenfunction_residual"),
    "exponents.leg_weight: theta_1 + 5e-4": _both(
        "exponents.kpz_leg_identity_residual", "exponents.lambda0_identity_residual",
        "green.adjoint_residual_homogeneous", "green.sigma_eigenfunction_residual"),
    "jacobi recurrence: b1 x (1 + 1e-4)": _both(
        "green.reproducing_mass_identity", "green.sigma_eigenfunction_residual",
        "jacobi.norm_vs_closed_form", "jacobi.operator_eigen_residual", "jacobi.orthogonality",
        "jacobi.recurrence_vs_gamma_sum", "jacobi.shifted_norm_relation",
        "kernel.mass_conservation", "kernel.semigroup", "kernel.single_mode_decay"),
    "jacobi recurrence: b0 + 1e-4 b1": (
        (
            "green.reproducing_mass_identity", "green.sigma_eigenfunction_residual",
            "jacobi.norm_vs_closed_form", "jacobi.operator_eigen_residual", "jacobi.orthogonality",
            "jacobi.parameter_symmetry", "jacobi.recurrence_vs_gamma_sum",
            "jacobi.shifted_norm_relation", "kernel.bound_two_sided_on_grid",
            "kernel.mass_conservation", "kernel.positivity_grid", "kernel.semigroup",
            "kernel.single_mode_decay",
        ),
        (
            "green.reproducing_mass_identity", "green.sigma_eigenfunction_residual",
            "jacobi.norm_vs_closed_form", "jacobi.operator_eigen_residual", "jacobi.orthogonality",
            "jacobi.parameter_symmetry", "jacobi.recurrence_vs_gamma_sum",
            "jacobi.shifted_norm_relation", "kernel.bound_two_sided_on_grid",
            "kernel.mass_conservation", "kernel.semigroup", "kernel.single_mode_decay",
        ),
    ),
    "jacobi.log_beta: Gauss weights x e^1e-6": _both(
        "green.reproducing_mass_identity", "jacobi.norm_vs_closed_form",
        "jacobi.shifted_norm_relation", "jacobi.unit_weight_mass_vs_beta_function",
        "kernel.mass_conservation", "kernel.semigroup", "kernel.single_mode_decay"),
    "jacobi.QuadratureRule: nodes + 1e-6": _both(
        "green.reproducing_mass_identity", "jacobi.norm_vs_closed_form", "jacobi.orthogonality",
        "jacobi.shifted_norm_relation", "kernel.mass_conservation", "kernel.semigroup",
        "kernel.single_mode_decay"),
    "JacobiBasis.norm_sq: x (1 + 1e-6)": _both(
        "green.reproducing_mass_identity", "jacobi.norm_vs_closed_form",
        "jacobi.shifted_norm_relation", "kernel.long_time_limit", "kernel.mass_conservation",
        "kernel.semigroup", "kernel.single_mode_decay"),
    "JacobiBasis.deriv: x (1 + 1e-4)": _both(
        "green.sigma_eigenfunction_residual", "jacobi.operator_eigen_residual"),
    "HeatKernel.decay_rate: index n + 1": _both(
        "kernel.single_mode_decay"),
    "HeatKernel.truncation_index: half the terms": (
        (
            "kernel.bound_two_sided_on_grid", "kernel.positivity_grid", "kernel.semigroup",
            "kernel.single_mode_decay",
        ),
        (
            "kernel.bound_two_sided_on_grid", "kernel.semigroup", "kernel.single_mode_decay",
        ),
    ),
    "HeatKernel.value: rho + 1e-7": _both(
        "green.greenfunc_vs_greenfuncalt", "kernel.symmetry"),
    "HeatKernel.grid: drops the n = 0 mode": _both(
        "green.reproducing_limit_error", "green.reproducing_mass_identity",
        "kernel.bound_two_sided_on_grid", "kernel.mass_conservation", "kernel.positivity_grid",
        "kernel.reproducing_error_small_t", "kernel.single_mode_decay"),
    "HeatKernel.grid: t floored at 1e-2": _both(
        "kernel.reproducing_error_monotone"),
    "OneIntervalGreen.value: x (1 + 1e-6)": _both(
        "green.j_coincidence_slope"),
    "OneIntervalGreen.gap: + 1e-6": _both(
        "green.j_euler_annihilation", "green.j_euler_annihilation_fd"),
    "TwoIntervalGreen: theta_1 term of Q* + 1e-2": _both(
        "green.adjoint_residual_homogeneous", "green.sigma_eigenfunction_residual"),
    "TwoIntervalGreen: boundary exponents swapped": _both(
        "green.sigma_decay_exponent_left", "green.sigma_decay_exponent_right",
        "green.sigma_eigenfunction_residual"),
    "TwoIntervalGreen._prefactor: x sigma^0.2": _both(
        "green.adjoint_residual_homogeneous", "green.sigma_decay_exponent_left"),
    "TwoIntervalGreen._transformed: x sigma^0.2": _both(
        "green.reproducing_limit_error", "green.reproducing_mass_identity"),
    "pde.leg_weight: theta_1 + 1e-2": _both(
        "asymptotics.adjacent_eps_exponent", "asymptotics.adjacent_normalized_ratio_constant",
        "asymptotics.far_pair_bounded", "asymptotics.n1_collapse_exponent",
        "asymptotics.two_leg_two_term", "pde.n1_collapse_normalization",
        "pde.system_residuals_sweep", "pde.two_point_ward_witness"),
    "WeightAssignment.weight: theta_1 + 1e-4": _both(
        "pde.system_residuals_sweep", "pde.two_point_ward_witness"),
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
    "asymptotics._slope_fit: exponent + 1e-2": _both(
        "asymptotics.n1_collapse_exponent"),
    "findiff.line_fit: slope + 1e-2": _both(
        "asymptotics.adjacent_eps_exponent", "asymptotics.decomposition_fit",
        "asymptotics.n1_collapse_exponent"),
    "asymptotics.MODEL_TOL = 1": _both(
        "asymptotics.two_leg_margin_plus"),
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
}

# checks no fault above fails, and why
UNCOVERED = {}


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
    names = {c.name for c in checks.run_suite("all", 6.0, corrupt={}, **ARGS[6.0])}
    caught = {name for row in MATRIX.values() for at_kappa in row for name in at_kappa}
    assert caught | set(UNCOVERED) == names
    assert not caught & set(UNCOVERED)
    assert {key for corrupt, _ in FAULTS.values() for key in corrupt} == set(
        checks.SUPPORTED_CORRUPTIONS)
