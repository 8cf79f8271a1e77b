"""Independent reference implementations used only by the test suite.

These deliberately avoid the code paths under test: the exponential is a plain
Taylor series with scaling and squaring, the logarithm a Mercator series with
inverse scaling, transports come from closed-form constant-coefficient
solutions, and exterior derivatives are evaluated analytically.
"""

import numpy as np


def draw_rows(count, draw):
    """``count`` calls of ``draw()``, each a tuple of arrays or numbers, made
    one row at a time and stacked entry by entry into a tuple of arrays with
    a leading row axis: the per-sample loop of the stacked samplers."""
    return tuple(np.array(column) for column in zip(*(draw() for _ in range(count))))


def sample_rows_oracle(rng, count, *fields):
    """`calculus.sample_rows` one row at a time: each field of a row drawn by
    its own ``rng.uniform`` or ``rng.standard_normal`` call."""
    from liebundles.calculus import Normal

    def row():
        return tuple(rng.standard_normal(f.shape) if isinstance(f, Normal)
                     else rng.uniform(f.low, f.high, f.shape) for f in fields)

    return draw_rows(count, row)


def taylor_expm(m, terms=24, max_norm=0.5):
    """Scaling-and-squaring matrix exponential with a Taylor kernel."""
    m = np.asarray(m, dtype=float)
    norm = np.linalg.norm(m)
    squarings = 0
    while norm > max_norm:
        m = m / 2.0
        norm /= 2.0
        squarings += 1
    out = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, terms + 1):
        term = term @ m / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def series_logm(g, terms=60, tol=1e-14):
    """Principal log via inverse scaling (repeated sqrt) plus Mercator series."""
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    scalings = 0
    import scipy.linalg

    while np.linalg.norm(g - np.eye(n)) > 0.25 and scalings < 60:
        g = scipy.linalg.sqrtm(g).real
        scalings += 1
    x = g - np.eye(n)
    out = np.zeros_like(x)
    term = np.eye(n)
    for k in range(1, terms + 1):
        term = term @ x
        out = out + ((-1) ** (k + 1)) * term / k
        if np.linalg.norm(term) / k < tol:
            break
    return out * (2.0**scalings)


def so3_hat(w):
    return np.array(
        [[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]]
    )


def _row_norm(v):
    """Euclidean norm per row, by a 1xk by kx1 product per row; the package's
    gufunc `_norm` must equal it bit for bit."""
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def per_row_ad_matrix(desc, coords):
    """ad_u from the structure constants by a 1xd by dx(d d) product per row
    of u; `GroupDescriptor.ad_matrix` must equal it bit for bit."""
    c = desc.structure_constants
    d = c.shape[0]
    rows = np.swapaxes(c, 0, 1).reshape(d, -1)  # row k holds c[:, k, :]
    return (coords[..., None, :] @ rows).reshape(coords.shape[:-1] + (d, d))


def bracket_oracle(desc, a, b):
    """The coordinate bracket as one three-operand einsum over every
    structure constant, zeros included: `bracket_coords` must equal it by ==."""
    return np.einsum("kij,...i,...j->...k", desc.structure_constants, a, b)


def per_pair_structure_constants(basis):
    """`groups.derive_structure_constants` one basis pair at a time: one
    least-squares solve and one span check per commutator [E_i, E_j], in
    (i, j) order."""
    from liebundles.errors import DescriptorError

    basis = np.asarray(basis, dtype=float)
    d = basis.shape[0]
    flat = basis.reshape(d, -1).T
    c = np.zeros((d, d, d))
    for i in range(d):
        for j in range(d):
            comm = (basis[i] @ basis[j] - basis[j] @ basis[i]).reshape(-1)
            coef = np.linalg.lstsq(flat, comm, rcond=None)[0]
            if np.linalg.norm(flat @ coef - comm) > 1e-10:
                raise DescriptorError(
                    f"commutator [E_{i}, E_{j}] is not in the span of the algebra basis")
            c[:, i, j] = coef
    c[np.abs(c) < 1e-12] = 0.0
    return 0.5 * (c - np.swapaxes(c, 1, 2))


def per_pair_commutator_residual(desc):
    """The commutator residual of `GroupDescriptor.validate` one basis pair at
    a time, each commutator against its own `tensordot` of the constants."""
    c, basis = desc.structure_constants, desc.basis
    worst = 0.0
    for i in range(desc.dim):
        for j in range(desc.dim):
            comm = basis[i] @ basis[j] - basis[j] @ basis[i]
            recon = np.tensordot(c[:, i, j], basis, axes=(0, 0))
            worst = max(worst, float(np.max(np.abs(comm - recon))))
    return worst


def _frob(m):
    return _row_norm(m.reshape(m.shape[:-2] + (-1,)))


def hat_so3_exp(m):
    """The earlier so3 exp kernel: Rodrigues from a stack of hat matrices,
    reading the angle back out of entries (2,1), (0,2), (1,0).  The coordinate
    kernel must equal it bit for bit."""
    theta = _row_norm(m[..., [2, 0, 1], [1, 2, 0]])
    small = theta < 1e-8
    series = np.count_nonzero(small) > 0
    if series:
        theta = np.where(small, 1.0, theta)
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / (theta * theta)
    if series:
        a, b = np.where(small, 1.0, a), np.where(small, 0.5, b)
    return np.eye(3) + a[..., None, None] * m + b[..., None, None] * (m @ m)


def two_check_orthogonal_retract(m):
    """The earlier orthogonal retraction: one Newton polar step, a second on
    every row whose Gram defect stays above 1e-14, and the SVD where the
    first Gram defect is at least 1e-4.  The retraction must equal it bit for
    bit."""
    eye = np.eye(m.shape[-1])
    gram_defect = m.swapaxes(-1, -2) @ m - eye
    r = m @ (eye - 0.5 * gram_defect)
    defect = r.swapaxes(-1, -2) @ r - eye
    again = _frob(defect) > 1e-14
    if np.count_nonzero(again):
        r = np.where(again[..., None, None], r @ (eye - 0.5 * defect), r)
    far = _frob(gram_defect) >= 1e-4
    if np.count_nonzero(far):
        u, _, vt = np.linalg.svd(m[far])
        u[np.linalg.det(u @ vt) < 0, :, -1] *= -1.0
        r[far] = u @ vt
    return r


def orthogonal_residual(m):
    """Distance of each matrix of a stack from SO(n): the Frobenius norm of
    its Gram defect m^T m - I plus |det m - 1|, the measure the orthogonal
    retraction must return bit for bit."""
    return _frob(m.swapaxes(-1, -2) @ m - np.eye(m.shape[-1])) + abs(np.linalg.det(m) - 1.0)


def line_oracle(start, end, s):
    """The closed-form straight segment (1 - s) start + s end at the interval
    fraction ``s``, a lone fraction or a 1-D array of them (rows first)."""
    start, end = np.asarray(start, dtype=float), np.asarray(end, dtype=float)
    s = np.reshape(s, np.shape(s) + (1,) * start.ndim)
    return (1.0 - s) * start + s * end


def constant_coefficient_transport(a_matrix, t, g0):
    """Closed-form solution of g' = -[A, g] = (Ad_g A - A) g for constant A."""
    e = taylor_expm(-t * a_matrix)
    return e @ g0 @ np.linalg.inv(e)


def affine_transport_oracle(nu, gamma, length, y0):
    """Endpoint of y' = -(N y + G) over a straight run of given length.

    Augmented-matrix exponential of the constant system d/dt [y;1] =
    -[[N, G],[0,0]] [y;1].
    """
    m = nu.shape[0]
    big = np.zeros((m + 1, m + 1))
    big[:m, :m] = -nu
    big[:m, m] = -gamma
    e = taylor_expm(length * big)
    out = e @ np.concatenate([y0, [1.0]])
    return out[:m]


def central_jacobian(f, x, h=1e-6):
    """Plain central-difference Jacobian, independent of the package's."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((np.asarray(f(xp), float) - np.asarray(f(xm), float)) / (2 * h))
    return np.column_stack(cols)


def observed_order(errors, ratios=2.0):
    """Median convergence order from a sequence of errors at halving steps."""
    errors = [max(e, 1e-300) for e in errors]
    orders = [np.log(errors[i] / errors[i + 1]) / np.log(ratios) for i in range(len(errors) - 1)]
    return float(np.median(orders))


# ---------------------------------------------------------------------------
# per-tangent connection forms: the form evaluated one tangent (u, delta) at a
# time, by the direct matrix formulas, with no form matrix
# ---------------------------------------------------------------------------


def canonical_form_oracle(desc, y, u, delta, base_form=None):
    """Ad_{h^-1}(A(u) + delta) computed as h^-1 (A(u) + delta) h."""
    val = desc.algebra_matrix(delta)
    if base_form is not None:
        val = val + desc.algebra_matrix(base_form(y.q, u).coords)
    h = y.fiber.matrix
    return desc.matrix_coords(np.linalg.inv(h) @ val @ h)


def twisted_form_oracle(desc, sigma_gen, p, tau_gen, r, y, u, delta):
    """Left Maurer-Cartan value of m = s^-1 t^-1 h s mapped back by Ad_s, with
    m' from the product rule; s = exp(p(x) Z_sigma), t = exp(r(x) Z_tau)."""
    x, u = y.q, np.asarray(u, float)
    h = y.fiber.matrix
    s = taylor_expm(p(x) * desc.algebra_matrix(sigma_gen))
    t = taylor_expm(r(x) * desc.algebra_matrix(tau_gen))
    s_rate = sum(p.partial(mu)(x) * u[mu] for mu in range(u.size))
    t_rate = sum(r.partial(mu)(x) * u[mu] for mu in range(u.size))
    s_dot = s_rate * desc.algebra_matrix(sigma_gen) @ s
    t_dot = t_rate * desc.algebra_matrix(tau_gen) @ t
    h_dot = desc.algebra_matrix(delta) @ h
    s_inv, t_inv = np.linalg.inv(s), np.linalg.inv(t)
    m = s_inv @ t_inv @ h @ s
    m_dot = (
        -s_inv @ s_dot @ s_inv @ t_inv @ h @ s
        - s_inv @ t_inv @ t_dot @ t_inv @ h @ s
        + s_inv @ t_inv @ h_dot @ s
        + s_inv @ t_inv @ h @ s_dot
    )
    return desc.matrix_coords(s @ np.linalg.inv(m) @ m_dot @ s_inv)


def glued_cocycle_oracle(desc, sigma_gen, p, w_b, x, u, fibers):
    """Lift map of the two-chart nu written as the weighted cocycle of the
    twisted chart: w_b(x) (s - Ad_g s), with s the right-trivialized rate of
    sigma = exp(p(x) Z_sigma) along u.  x, u and the fibers may carry one
    leading stack axis."""
    rate = sum(p.partial(mu)(x) * u[..., mu] for mu in range(p.dim))
    s = np.multiply.outer(rate, sigma_gen.coords)
    return np.asarray(w_b(x))[..., None] * (s - (desc.Ad_matrix(fibers) @ s[..., None])[..., 0])


def affine_form_oracle(nu_coeff, gamma, y, u, delta):
    """(sum_mu u_mu N_mu(x)) v + u . Gamma(x) + delta, with v the translation
    part of the fiber matrix."""
    m = len(delta)
    v = y.fiber.matrix[:m, m]
    k = np.tensordot(np.asarray(u, float), nu_coeff(y.q), axes=(0, 0))
    return k @ v + np.asarray(u, float) @ gamma(y.q) + np.asarray(delta, float)


def horizontal_lift_oracle(value, d, u):
    """Fiber velocity annihilated by a per-tangent form value(u, delta): one
    evaluation for the right-hand side and one per algebra basis vector."""
    u = np.asarray(u, float)
    rhs = -value(u, np.zeros(d))
    op = np.column_stack([value(np.zeros(u.size), e) for e in np.eye(d)])
    return np.linalg.solve(op, rhs)


# ---------------------------------------------------------------------------
# per-sample law checks: the sampled-law validators as loops that draw and
# evaluate one sample at a time through the lone-point kernels.  The package
# draws the same numbers in the same order and evaluates them as one stack;
# it must return exactly these numbers.
# ---------------------------------------------------------------------------


def form_law_residuals_oracle(form, rng, samples):
    """Worst residuals of the two laws of an algebra-valued form on random
    samples.  Over a group connection nu = form.nu: complementarity
    |value(generator of xi) - xi| and equivariance value(y.g, dPhi) =
    Ad_{g^-1}(value(y) + nu form).  Over none: horizontality |value(generator
    of xi)| and plain adjoint equivariance."""
    from liebundles.bundles import Tangent

    action, value, nu = form.action, form.value, form.nu
    desc = action.space.fiber
    vert_worst = equi_worst = 0.0
    for _ in range(samples):
        y = action.space.random_point(rng)
        xi = desc.random_algebra(rng)
        target = xi.coords if nu is not None else 0.0
        vert = value(y, action.generator(y, xi)).coords - target
        vert_worst = max(vert_worst, float(np.linalg.norm(vert)))

        g = desc.random_element(rng)
        u = rng.standard_normal(action.space.quotient.dim)
        t_y = Tangent(u, desc.random_algebra(rng))
        t_g = Tangent(u, desc.random_algebra(rng))
        lhs = value(action.act(y, g), action.differential(y, g, t_y, t_g)).coords
        correction = nu.connection_form(y.q, g, u, t_g.delta).coords if nu is not None else 0.0
        rhs = desc.Ad_matrix(g.inverse()) @ (value(y, t_y).coords + correction)
        equi_worst = max(equi_worst, float(np.linalg.norm(lhs - rhs)))
    return vert_worst, equi_worst


def principal_connection_oracle(omega, rng, samples):
    """`validate_principal_connection`, one sample at a time."""
    comp, equi = form_law_residuals_oracle(omega, rng, samples)
    return {"complementarity": comp, "ad_equivariance": equi}


def tensorial_form_oracle(form, rng, samples):
    """`validate_tensorial_form`, one sample at a time."""
    horiz, equi = form_law_residuals_oracle(form, rng, samples)
    return {"horizontality": horiz, "ad_equivariance": equi}


def group_connection_oracle(nu, rng, samples):
    """`validate_group_connection`, one sample at a time."""
    desc = nu.bundle.fiber
    chart = nu.bundle.base
    unit_worst = 0.0
    cocycle_worst = 0.0
    jet_worst = 0.0
    for _ in range(samples):
        x = chart.sample(rng)
        u = rng.standard_normal(chart.dim)
        g = desc.random_element(rng)
        gp = desc.random_element(rng)
        unit_worst = max(
            unit_worst, np.linalg.norm(nu.horizontal_delta(x, desc.identity(), u).coords)
        )
        lhs = nu.horizontal_delta(x, g @ gp, u).coords
        rhs = (
            nu.horizontal_delta(x, g, u).coords
            + desc.Ad_matrix(g) @ nu.horizontal_delta(x, gp, u).coords
        )
        cocycle_worst = max(cocycle_worst, float(np.linalg.norm(lhs - rhs)))
        jg, jgp, jet = (np.vstack([nu.horizontal_delta(x, f, e).coords for e in np.eye(chart.dim)])
                        for f in (g, gp, g @ gp))
        prod_deriv = jg + (desc.Ad_matrix(g) @ jgp.T).T
        jet_worst = max(jet_worst, float(np.max(np.abs(prod_deriv - jet))))
    return {
        "unit_kernel": float(unit_worst),
        "cocycle": float(cocycle_worst),
        "jet_multiplicativity": float(jet_worst),
    }


def classical_form_value_oracle(scenario, x, g, u, delta_right, drop_ad=False):
    """Classical coefficient form at one sample."""
    desc = scenario.group
    left = desc.Ad_matrix(g.inverse()) @ delta_right.coords
    base = scenario.base_form(x, u).coords
    if not drop_ad:
        base = desc.Ad_matrix(g.inverse()) @ base
    return desc.algebra(base + left)


def principal_equivalence_oracle(scenario, rng, samples, drop_ad=False):
    """`principal_equivalence_report`, one sample at a time; its control form
    is evaluated at one point at a time, where a plain transpose suffices."""
    from liebundles.calculus import FiberMap
    from liebundles.principal import GeneralizedPrincipalConnection, form_matrix

    desc = scenario.group
    chart = scenario.chart
    vert_worst = 0.0
    requiv_worst = 0.0
    for _ in range(samples):
        x = chart.sample(rng)
        g = desc.random_element(rng)
        xi = desc.random_algebra(rng)
        # right-action generator at g has left-trivialized value xi
        delta = desc.algebra(desc.Ad_matrix(g) @ xi.coords)
        got = classical_form_value_oracle(scenario, x, g, np.zeros(chart.dim), delta, drop_ad)
        vert_worst = max(vert_worst, float(np.linalg.norm(got.coords - xi.coords)))

        h = desc.random_element(rng)
        u = rng.standard_normal(chart.dim)
        dv = desc.random_algebra(rng)
        lhs = classical_form_value_oracle(scenario, x, g @ h, u, dv, drop_ad).coords
        rhs = desc.Ad_matrix(h.inverse()) @ classical_form_value_oracle(
            scenario, x, g, u, dv, drop_ad).coords
        requiv_worst = max(requiv_worst, float(np.linalg.norm(lhs - rhs)))

    if drop_ad:
        broken = GeneralizedPrincipalConnection(
            scenario.action,
            scenario.omega.nu,
            lambda q: FiberMap(lambda fibers: form_matrix(
                scenario.base_form.coefficient_array(q).T,
                desc.Ad_matrix(desc.inverse(fibers)))),
        )
        induced = principal_connection_oracle(broken, rng, samples)
    else:
        induced = principal_connection_oracle(scenario.omega, rng, samples)
    return {
        "classical_vertical": vert_worst,
        "classical_right_equivariance": requiv_worst,
        "induced_complementarity": induced["complementarity"],
        "induced_ad_equivariance": induced["ad_equivariance"],
    }


def affine_equivalence_oracle(scenario, rng, samples):
    """`affine_equivalence_report`, one sample at a time."""
    from liebundles.bundles import Tangent

    group = scenario.group
    chart = scenario.chart
    m = scenario.group.dim
    shift_worst = 0.0
    for _ in range(samples):
        x = chart.sample(rng)
        yv = rng.uniform(-1, 1, m)
        w = rng.uniform(-1, 1, m)
        u = rng.standard_normal(chart.dim)
        dy = group.random_algebra(rng)
        y = scenario.fiber_point(x, yv)
        y_shift = scenario.fiber_point(x, yv + w)
        lhs = scenario.omega.value(y_shift, Tangent(u, dy)).coords
        k = np.tensordot(u, scenario.nu_coeff(x), axes=(0, 0))
        rhs = scenario.omega.value(y, Tangent(u, dy)).coords + k @ w
        shift_worst = max(shift_worst, float(np.linalg.norm(lhs - rhs)))
    return {"shift_equivariance": shift_worst}


def affine_reconstruction_oracle(scenario, omega, rng, samples):
    """`affine_reconstruction_residual`, one sample at a time, with the form
    evaluated on one tangent at a time."""
    from liebundles.bundles import Tangent

    group = scenario.group
    chart = scenario.chart
    m = scenario.group.dim
    n = chart.dim
    worst = 0.0
    for _ in range(samples):
        x = chart.sample(rng)
        origin = scenario.fiber_point(x, np.zeros(m))
        gamma_fit = np.vstack([
            omega.value(origin, Tangent(e, group.zero())).coords for e in np.eye(n)
        ])
        yv = rng.uniform(-1, 1, m)
        y = scenario.fiber_point(x, yv)
        linear_fit = np.stack([
            omega.value(y, Tangent(e, group.zero())).coords - gamma_fit[mu]
            for mu, e in enumerate(np.eye(n))
        ])
        u = rng.standard_normal(n)
        dy = group.random_algebra(rng)
        recon = u @ gamma_fit + np.tensordot(u, linear_fit, axes=(0, 0)) + dy.coords
        got = omega.value(y, Tangent(u, dy)).coords
        worst = max(worst, float(np.linalg.norm(recon - got)))
    return worst


def action_axioms_oracle(action, rng, samples):
    """`FiberedAction.validate`, one sample at a time."""
    desc = action.space.fiber
    worst = 0.0
    for _ in range(samples):
        y = action.space.random_point(rng)
        g = desc.random_element(rng)
        h = desc.random_element(rng)
        yg = action.act(y, g)
        worst = max(worst, float(np.linalg.norm(yg.q - y.q)))
        two_step = action.act(action.act(y, h), g)
        one_step = action.act(y, h @ g)
        worst = max(worst, two_step.distance(one_step))
        worst = max(worst, action.act(y, desc.identity()).distance(y))
    for _ in range(samples):
        y = action.space.random_point(rng)
        g = desc.random_element(rng)
        if np.linalg.norm(g.matrix - np.eye(desc.matrix_dim)) > 1e-8:
            if action.act(y, g).distance(y) <= 1e-10:
                worst = max(worst, 1.0)
    return worst


# ---------------------------------------------------------------------------
# per-stage transports: the integrators as loops that ask the right-hand side
# field(t) once per stage time, so every x-dependent term is evaluated inside
# the step loop.  The package asks for the whole base schedule of a run in one
# batched call; it must return exactly these numbers.
# ---------------------------------------------------------------------------


def _per_stage_rkmk(field, desc, g, t0, t1, n_steps):
    h = (t1 - t0) / n_steps

    def dexpinv(u, v):
        ad = desc.ad_matrix(u)
        uv = ad @ v[..., None]
        return v - 0.5 * uv[..., 0] + (ad @ uv)[..., 0] / 12.0

    exp = desc.exp_coords
    f_start = field(t0)
    for k in range(n_steps):
        t = t0 + k * h
        f_mid, f_end = field(t + 0.5 * h), field(t0 + (k + 1) * h)
        k1 = f_start(g)
        u2 = 0.5 * h * k1
        k2 = dexpinv(u2, f_mid(exp(u2) @ g))
        u3 = 0.5 * h * k2
        k3 = dexpinv(u3, f_mid(exp(u3) @ g))
        u4 = h * k3
        k4 = dexpinv(u4, f_end(exp(u4) @ g))
        g = desc.retract(exp((h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)) @ g)
        f_start = f_end
    return g


def per_stage_integrate(field, desc, g0, interval, step, with_error_estimate):
    """(endpoints, step-halving error estimate or None) of g' = v_t(g) g by
    RKMK4 with ``field(t)`` asked once per stage time."""
    from liebundles.groups import _frobenius

    t0, t1 = float(interval[0]), float(interval[1])
    n = max(1, int(np.ceil((t1 - t0) / step)))
    end = _per_stage_rkmk(field, desc, g0, t0, t1, n)
    if not with_error_estimate:
        return end, None
    return end, _frobenius(end - _per_stage_rkmk(field, desc, g0, t0, t1, 2 * n))


def transport_group_oracle(nu, curve, g0, step, with_error_estimate):
    """`transport_group` with the lift map built at each stage point."""
    return per_stage_integrate(
        lambda t: nu.lift_map(curve.position(t), curve.velocity(t)), nu.bundle.fiber,
        g0.matrix, (curve.a, curve.b), step, with_error_estimate)


def transport_total_oracle(omega, curve, y0, step, with_error_estimate):
    """`transport_total` with the whole horizontal lift, x-parts included,
    evaluated at every fiber evaluation."""
    from liebundles.bundles import TotalPoint
    from liebundles.groups import GroupElement

    desc = omega.descriptor

    def field(t):
        q, u = curve.position(t), curve.velocity(t)
        return lambda h: omega.horizontal_deltas(
            TotalPoint(q, GroupElement(h, desc, check=False)), u)

    return per_stage_integrate(field, desc, y0.fiber.matrix, (curve.a, curve.b), step,
                               with_error_estimate)


def _stage_k(k_matrix, interval, step):
    """(h, steps): each step's K at its start, midpoint and end, asked one
    stage time at a time, and the step h."""
    t0, t1 = float(interval[0]), float(interval[1])
    n = max(1, int(np.ceil((t1 - t0) / step)))
    h = (t1 - t0) / n
    k_start = k_matrix(t0)
    steps = []
    for k in range(n):
        k_end = k_matrix(t0 + (k + 1) * h)
        steps.append((k_start, k_matrix(t0 + k * h + 0.5 * h), k_end))
        k_start = k_end
    return h, steps


def classical_rk4_oracle(k_matrix, columns, interval, step):
    """Classical RK4 on v' = K(t) v in its vector form, four products with K
    per step, K asked once per stage time by ``k_matrix(t)``."""
    h, steps = _stage_k(k_matrix, interval, step)
    v = np.asarray(columns, dtype=float).copy()
    for k_start, k_mid, k_end in steps:
        k1 = k_start @ v
        k2 = k_mid @ (v + 0.5 * h * k1)
        k3 = k_mid @ (v + 0.5 * h * k2)
        k4 = k_end @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return v


def algebra_generator_oracle(nu, curve):
    """K(t) of `connections._algebra_flow` at one time t."""
    from liebundles.connections import AlgebraConnection

    conn = AlgebraConnection(nu)
    return lambda t: conn.generator(curve.position(t), curve.velocity(t))


def algebra_flow_oracle(nu, curve, columns, step):
    """`connections._algebra_flow` by classical RK4 with K asked once per
    stage time, each step as its increment matrix M = K1 + 2 K2 + 2 K3 + K4
    applied to v, one step at a time."""
    h, steps = _stage_k(algebra_generator_oracle(nu, curve), (curve.a, curve.b), step)
    v = np.asarray(columns, dtype=float)
    for k_start, k_mid, k_end in steps:
        eye = np.eye(k_start.shape[-1])
        k2 = k_mid @ (eye + 0.5 * h * k_start)
        k3 = k_mid @ (eye + 0.5 * h * k2)
        k4 = k_end @ (eye + h * k3)
        v = v + (h / 6.0) * ((k_start + 2 * k2 + 2 * k3 + k4) @ v)
    return v


# ---------------------------------------------------------------------------
# gauge jets
# ---------------------------------------------------------------------------


def _ad_slots_oracle(desc, g, arr):
    """Ad_g on the algebra index (last axis) of a lone jet's coords."""
    return np.tensordot(arr, desc.Ad_matrix(g).T, axes=(-1, 0))


def section_product_jet(a, b):
    """One-jet of the pointwise product of the sections that the lone second
    jet tuples a and b represent.  The chain rule adds the bracket of the left
    factor's derivative slot with the Ad-translated value slot of the right
    factor: phi_uv += [eta_u, (Ad_g xi'_v)]."""
    from liebundles.gauge import SecondJetTuple

    desc = a.descriptor
    ad_xi = _ad_slots_oracle(desc, a.g, b.xi)
    bracket = desc.bracket_coords(a.eta[:, None, :], ad_xi[None, :, :])
    return SecondJetTuple(
        a.g @ b.g,
        a.xi + ad_xi,
        a.eta + _ad_slots_oracle(desc, a.g, b.eta),
        a.phi + _ad_slots_oracle(desc, a.g, b.phi) + bracket,
    )


def gauge_jet_from_element(desc_jet, e):
    """The lone GaugeJet (g, xi) read back from its block matrix."""
    from liebundles.gauge import GaugeJet
    from liebundles.groups import GroupElement

    base, n = desc_jet.extra["base"], desc_jet.extra["n"]
    m, vdim = base.matrix_dim, n * base.dim
    g = GroupElement(e.matrix[:m, :m], base, check=False)
    return GaugeJet(g, e.matrix[m : m + vdim, -1].reshape(n, base.dim).copy())


def gauge_check_oracles():
    """The sampled gauge suite checks, one lone jet at a time: check id ->
    f(scenario, rng, samples) returning the residual list of the check."""
    from liebundles.gauge import (ConnectionJet, EquivariantJetConnection, GaugeJet,
                                  GaugeSecondJet, classification_equivariance_residual,
                                  curvature_invariance_residual, curvature_map,
                                  element_from_gauge_jet, extract_classifying_sections,
                                  jet_connection_multiplicativity_residual,
                                  jet_realizing_curvature, restricted_action_move)

    def jet(s, rng):
        return GaugeJet.random(s.group, s.n, rng)

    def group_axioms(s, rng, samples):
        vals = []
        e = GaugeJet.identity(s.group, s.n)
        for _ in range(min(samples, 1000)):
            k1, k2, k3 = jet(s, rng), jet(s, rng), jet(s, rng)
            vals.append(k1.mul(k2).mul(k3).distance(k1.mul(k2.mul(k3))))
            vals.append(k1.mul(e).distance(k1))
            vals.append(k1.mul(k1.inv()).distance(e))
        return vals

    def adjoint_closed_form(s, rng, samples):
        vals = []
        for _ in range(min(samples, 50)):
            k = jet(s, rng)
            eta = rng.uniform(-1, 1, s.group.dim)
            phi = rng.uniform(-1, 1, (s.n, s.group.dim))
            ad_eta, ad_phi = k.adjoint(eta, phi)
            big = element_from_gauge_jet(s.jet_descriptor, k)
            via = s.jet_descriptor.Ad(big, s.jet_descriptor.algebra(
                np.concatenate([eta, phi.reshape(-1)]))).coords
            vals.append(float(np.max(np.abs(
                np.concatenate([ad_eta, ad_phi.reshape(-1)]) - via))))
        return vals

    def connection_mult(s, rng, samples):
        return [jet_connection_multiplicativity_residual(jet(s, rng), jet(s, rng))
                for _ in range(min(samples, 500))]

    def equivariance(s, rng, samples):
        return [classification_equivariance_residual(s.omega_hat, jet(s, rng), jet(s, rng))
                for _ in range(min(samples, 200))]

    def reconstruction(s, rng, samples):
        x = np.zeros(s.n)
        f_got, g_got = extract_classifying_sections(s.omega_hat, x)
        rebuilt = EquivariantJetConnection(s.group, s.n, f=lambda _: f_got, g2=lambda _: g_got)
        vals = []
        for _ in range(min(samples, 100)):
            w = jet(s, rng)
            vals.append(rebuilt(x, w).distance(s.omega_hat(x, w)))
        return vals

    def negative(s, rng, samples):
        broken = EquivariantJetConnection(
            s.group, s.n, f=lambda x: 0.5 * np.ones((s.n, s.group.dim)), drop_ad_twist=True)
        return [classification_equivariance_residual(broken, jet(s, rng), jet(s, rng))
                for _ in range(min(samples, 50))]

    def invariance(s, rng, samples):
        return [curvature_invariance_residual(ConnectionJet.random(s.group, s.n, rng),
                                              GaugeSecondJet.random(s.group, s.n, rng))
                for _ in range(min(samples, 1000))]

    def freeness(s, rng, samples):
        vals = []
        for _ in range(min(samples, 200)):
            connection = ConnectionJet.random(s.group, s.n, rng)
            vals.append(restricted_action_move(connection, GaugeSecondJet.random(s.group, s.n, rng)))
        return vals

    def surjectivity(s, rng, samples):
        vals = []
        for _ in range(min(samples, 50)):
            raw = rng.uniform(-1, 1, (s.n, s.n, s.group.dim))
            target = raw - np.swapaxes(raw, 0, 1)
            vals.append(float(np.max(np.abs(
                curvature_map(jet_realizing_curvature(s.group, target)) - target))))
        return vals

    return {
        "classification-equivariance": equivariance,
        "classification-negative-control": negative,
        "classification-reconstruction": reconstruction,
        "curvature-map-invariance": invariance,
        "curvature-target-realization": surjectivity,
        "jet-adjoint-closed-form": adjoint_closed_form,
        "jet-connection-multiplicative": connection_mult,
        "jet-group-axioms": group_axioms,
        "restricted-action-freeness": freeness,
    }


# ---------------------------------------------------------------------------
# per-sample suite checks: the torsor action, lift, curvature, covariant
# product rule and jet-adjoint checks as loops over lone samples or curves, in
# the RNG order the stacked suite checks keep
# ---------------------------------------------------------------------------


def jet_equivariance_oracle(omega, y, g):
    """`jet_equivariance_check` at one point: the n horizontal lifts as the
    columns of one solve, and the nu-lifts one base direction at a time."""
    from liebundles.bundles import Tangent

    desc = omega.descriptor
    eye = np.eye(omega.n)
    t_y = Tangent(eye, desc.algebra(omega.horizontal_deltas(y, eye).T))
    t_g = Tangent(eye, desc.algebra(np.stack([omega.nu.horizontal_delta(y.q, g, e).coords
                                              for e in eye])))
    pushed = omega.action.differential(y, g, t_y, t_g).delta.coords
    return float(np.max(np.abs(pushed - omega.horizontal_deltas(omega.action.act(y, g), eye).T)))


def torsor_check_oracles():
    """The stacked torsor suite checks, one lone sample at a time: check id ->
    f(scenario, rng, samples) returning the residual list of the check."""
    from liebundles.bundles import (Tangent, paired_generator_residual,
                                    vertical_isomorphism_check)
    from liebundles.connections import (covariant_derivative_bracket_check,
                                        horizontal_product_rule_check)
    from liebundles.principal import (curvature, equivariant_product_connection_check,
                                      horizontal_transform_check, transport_total)
    from liebundles.scenarios import affine_transport_flow, random_curve

    def point(s, rng):
        return s.action.space.random_point(rng)

    def vertical(s, rng, samples):
        vals = []
        for _ in range(min(samples, 100)):
            y = point(s, rng)
            vals.append(float(np.linalg.norm(s.action.generator(y, s.group.random_algebra(rng)).u)))
        return vals

    def isomorphism(s, rng, samples):
        return [float(vertical_isomorphism_check(s.action, point(s, rng)))
                for _ in range(min(samples, 25))]

    def equivariance(s, rng, samples):
        vals = []
        for _ in range(min(samples, 25)):
            y, g = point(s, rng), s.group.random_element(rng)
            vals.append(float(paired_generator_residual(
                s.action, y, g, s.group.random_algebra(rng), s.group.zero())))
        return vals

    def paired(s, rng, samples):
        vals = []
        for _ in range(min(samples, 25)):
            y, g = point(s, rng), s.group.random_element(rng)
            xi = s.group.random_algebra(rng)
            vals.append(float(paired_generator_residual(s.action, y, g, xi,
                                                        s.group.random_algebra(rng))))
        return vals

    def product_rule(s, rng, samples):
        vals = []
        for _ in range(min(samples, 25)):
            x = s.chart.sample(rng)
            g, h = s.group.random_element(rng), s.group.random_element(rng)
            u = rng.standard_normal(s.chart.dim)
            vals.append(float(horizontal_product_rule_check(s.nu, x, g, h, u,
                                                            s.group.random_algebra(rng))))
        return vals

    def jet(s, rng, samples):
        return [jet_equivariance_oracle(s.transport_form, point(s, rng),
                                        s.group.random_element(rng))
                for _ in range(min(samples, 25))]

    def transform(s, rng, samples):
        vals = []
        for _ in range(min(samples, 15)):
            y, g = point(s, rng), s.group.random_element(rng)
            u = rng.standard_normal(s.chart.dim)
            vals.append(float(horizontal_transform_check(s.transport_form, y, g, u,
                                                         s.group.random_algebra(rng))))
        return vals

    def product_connection(s, rng, samples):
        vals = []
        for _ in range(min(samples, 10)):
            y, g = point(s, rng), s.group.random_element(rng)
            u = rng.standard_normal(s.chart.dim)
            t_y = Tangent(u, s.group.random_algebra(rng))
            t_g = Tangent(u, s.group.random_algebra(rng))
            vals.append(float(equivariant_product_connection_check(s.transport_form, y, g,
                                                                   t_y, t_g)))
        return vals

    def affine_self_consistency(s, rng, samples):
        curve = s.curves["main"]
        v0 = np.array([rng.uniform(-1, 1, s.group.dim) for _ in range(min(samples, 5))])
        y0 = s.fiber_point(curve.position(curve.a), v0)
        coarse, _ = transport_total(s.omega, curve, y0, step=s.config["step"])
        # the flow runs on the stack: a lone column may round 1 ulp apart
        flow = affine_transport_flow(s, curve, v0, s.config["step"] / 4.0)
        return [float(np.linalg.norm(s.group.log_coords(end) - ref))
                for end, ref in zip(coarse.fiber.matrix, flow)]

    def covariant_product_rule(s, rng, samples):
        vals = []
        for _ in range(min(samples, 3)):
            curve = random_curve(s.chart, rng)
            w = s.group.random_algebra(rng)
            xi0 = s.group.random_algebra(rng)

            def g_path(t, w=w):
                return s.group.exp(s.group.algebra(t * w.coords))

            def xi_path(t, xi0=xi0):
                return s.group.algebra(xi0.coords * (1.0 + 0.3 * t))

            vals.append(float(covariant_derivative_bracket_check(
                s.nu, curve, g_path, xi_path, 0.5 * (curve.a + curve.b))))
        return vals

    def curvature_two_path(s, rng, samples):
        vals = []
        for _ in range(min(samples, 4)):
            y = point(s, rng)
            u1, u2 = rng.standard_normal(s.chart.dim), rng.standard_normal(s.chart.dim)
            vals.append(float(curvature(s.omega, y, u1, u2).gap))
        return vals

    def curvature_antisymmetry(s, rng, samples):
        vals = []
        for _ in range(min(samples, 4)):
            y = point(s, rng)
            u = rng.standard_normal(s.chart.dim)
            vals.append(float(np.linalg.norm(curvature(s.omega, y, u, u).value.coords)))
        return vals

    def curvature_tensoriality(s, rng, samples):
        vals = []
        for _ in range(min(samples, 3)):
            y = point(s, rng)
            u1, u2 = rng.standard_normal(s.chart.dim), rng.standard_normal(s.chart.dim)
            a = curvature(s.omega, y, u1, u2).value.coords
            b = curvature(s.omega, y, 2.0 * u1, u2).value.coords
            vals.append(float(np.linalg.norm(2.0 * a - b)))
        return vals

    def reduced_curvature(s, rng, samples):
        """|Ad_{g^-1} Omega_y - Omega_{y.g}| from two lone curvature calls,
        with g solved back from the two fibers."""
        vals = []
        for _ in range(min(samples, 4)):
            y = point(s, rng)
            g = s.group.random_element(rng)
            u1, u2 = rng.standard_normal(s.chart.dim), rng.standard_normal(s.chart.dim)
            yg = s.action.act(y, g)
            val_y = curvature(s.omega, y, u1, u2).value
            val_yg = curvature(s.omega, yg, u1, u2).value
            solved = y.fiber.inverse() @ yg.fiber
            vals.append(float(np.linalg.norm(s.group.Ad(solved.inverse(), val_y).coords
                                             - val_yg.coords)))
        return vals

    return {
        "affine-transport-self-consistency": affine_self_consistency,
        "covariant-product-rule": covariant_product_rule,
        "curvature-antisymmetry": curvature_antisymmetry,
        "curvature-tensoriality": curvature_tensoriality,
        "curvature-two-path": curvature_two_path,
        "generator-equivariance": equivariance,
        "generator-isomorphism": isomorphism,
        "generator-verticality": vertical,
        "horizontal-product-rule": product_rule,
        "horizontal-transform": transform,
        "jet-equivariance": jet,
        "paired-generators": paired,
        "product-connection-equivariance": product_connection,
        "reduced-curvature-independence": reduced_curvature,
    }


def jet_adjoint_fd_oracle(s, rng, samples):
    """`jet-adjoint-fd-cross-check` one lone jet at a time, with its own
    central difference of e -> big exp(e c) big^-1 at the unit."""
    from liebundles.gauge import GaugeJet, element_from_gauge_jet

    desc = s.jet_descriptor
    vals = []
    for _ in range(min(samples, 10)):
        k = GaugeJet.random(s.group, s.n, rng)
        eta = rng.uniform(-1, 1, s.group.dim)
        phi = rng.uniform(-1, 1, (s.n, s.group.dim))
        ad_eta, ad_phi = k.adjoint(eta, phi)
        big = element_from_gauge_jet(desc, k)
        coords = np.concatenate([eta, phi.reshape(-1)])
        h = 1e-6

        def conj(e):
            return (big @ desc.exp(desc.algebra(e * coords)) @ big.inverse()).matrix

        fd = desc.matrix_coords((conj(h) - conj(-h)) / (2 * h), tol=1e-4)
        vals.append(float(np.max(np.abs(fd - np.concatenate([ad_eta, ad_phi.reshape(-1)])))))
    return vals
