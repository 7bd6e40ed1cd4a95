import tracemalloc

import numpy as np
import pytest

from deeprain.autodiff import GradCheckEntry, GradCheckReport, GraphError, Tape, _rel_err, grad_check
from deeprain.data import SynthConfig, synth_generate
from deeprain.model import Model, ModelSpec, build_prediction, init_params, preprocess
from deeprain import tensor as T
from deeprain.tensor import ShapeError


def scalar(v):
    return np.array([float(v)])


class TestForward:
    def test_squared_error_graph(self):
        # L = (w*x - y)^2 with w=2, x=3, y=5
        tape = Tape()
        w = tape.param("w", scalar(2.0))
        pred = tape.mul(w, tape.const(scalar(3.0)))
        tape.squared_error(pred, tape.const(scalar(5.0)))
        assert tape.forward() == 1.0

    def test_sigmoid_at_zero(self):
        tape = Tape()
        tape.sigmoid(tape.const(scalar(0.0)))
        assert tape.forward() == 0.5

    def test_constant_graph(self):
        tape = Tape()
        tape.param("unused", scalar(4.0))
        tape.const(scalar(2.75))
        assert tape.forward() == 2.75
        grads = tape.backward()
        assert np.array_equal(grads["unused"], scalar(0.0))

    def test_non_scalar_terminal_rejected(self):
        tape = Tape()
        tape.const(np.zeros(3))
        with pytest.raises(GraphError, match=r"\(1,\)"):
            tape.forward()

    def test_backward_before_forward_rejected(self):
        tape = Tape()
        tape.param("w", scalar(1.0))
        with pytest.raises(GraphError, match="before forward"):
            tape.backward()

    def test_mean_of_terms_whose_partial_sum_overflows(self):
        # 1e308 + 1e308 leaves the float range; the mean, 1e308 / 3, does not
        tape = Tape()
        tape.mean_scalars([tape.const(scalar(v)) for v in (1e308, 1e308, -1e308)])
        assert tape.forward() == 1e308 / 3


class TestBackward:
    def test_square_gradient(self):
        tape = Tape()
        w = tape.param("w", scalar(3.0))
        tape.mul(w, w)
        tape.forward()
        assert tape.backward()["w"][0] == 6.0

    def test_sigmoid_gradient_at_zero(self):
        tape = Tape()
        w = tape.param("w", scalar(0.0))
        tape.sigmoid(w)
        tape.forward()
        assert tape.backward()["w"][0] == 0.25

    def test_conv_loss_matches_finite_differences(self):
        # L is quadratic in both inputs, so central differences are exact
        # up to rounding; 1e-6 relative is comfortably attainable.
        rng = np.random.default_rng(5)
        x0 = rng.normal(0, 1, (1, 3, 3))
        k0 = rng.normal(0, 1, (1, 1, 3, 3))
        target = rng.normal(0, 1, (1, 3, 3))

        def loss_fn(p):
            tape = Tape()
            x = tape.param("x", p["x"])
            k = tape.param("k", p["k"])
            err = tape.squared_error(tape.conv2d(x, k), tape.const(target))
            tape.mul(err, tape.const(scalar(1.0 / target.size)))
            return tape

        report = grad_check(loss_fn, {"x": x0, "k": k0}, step=1e-3, tol=1e-6)
        assert report.passed, report.render()

    def test_gradient_linearity(self):
        rng = np.random.default_rng(9)
        w0 = rng.normal(0, 1, 4)
        t1 = rng.normal(0, 1, 4)
        t2 = rng.normal(0, 1, 4)

        def grads_of(build):
            tape = Tape()
            w = tape.param("w", w0)
            build(tape, w)
            tape.forward()
            return tape.backward()["w"]

        g1 = grads_of(lambda tp, w: tp.squared_error(tp.tanh(w), tp.const(t1)))
        g2 = grads_of(lambda tp, w: tp.squared_error(tp.sigmoid(w), tp.const(t2)))

        def combined(tp, w):
            a = tp.squared_error(tp.tanh(w), tp.const(t1))
            b = tp.squared_error(tp.sigmoid(w), tp.const(t2))
            tp.add(a, b)

        g12 = grads_of(combined)
        assert np.abs(g12 - (g1 + g2)).max() < 1e-12

    def test_rerun_is_bitwise_identical(self):
        rng = np.random.default_rng(11)
        tape = Tape()
        k = tape.param("k", rng.normal(0, 1, (2, 1, 3, 3)))
        x = tape.const(rng.normal(0, 1, (1, 4, 4)))
        h = tape.global_avg_pool(tape.tanh(tape.conv2d(x, k)))
        tape.squared_error(
            tape.affine(h, tape.param("w", rng.normal(0, 1, (1, 2))), tape.param("b", np.zeros(1))),
            tape.const(scalar(0.3)),
        )
        l1 = tape.forward()
        g1 = {n: g.copy() for n, g in tape.backward().items()}
        l2 = tape.forward()
        g2 = tape.backward()
        assert l1 == l2
        for name in g1:
            assert np.array_equal(g1[name], g2[name])

    @pytest.mark.parametrize("n", [1, 3, 7, 30])
    def test_one_item_times_inverse_n_passes_the_batch_share(self, n):
        # A record's tape in a streamed batch ends in mul by 1/n: it must pass
        # its item the bits that mean_scalars over the whole batch passes.
        values = np.random.default_rng(n).normal(0, 1, n)
        whole = Tape()
        whole.mean_scalars([whole.param(f"x{i}", scalar(v)) for i, v in enumerate(values)])
        whole.forward()
        shares = whole.backward()
        for i, v in enumerate(values):
            tape = Tape()
            tape.mul(tape.param("x", scalar(v)), tape.const(scalar(1.0 / n)))
            tape.forward()
            assert tape.backward()["x"].tobytes() == shares[f"x{i}"].tobytes()


class TestGradCheck:
    def test_quadratic_passes_tightly(self):
        def loss_fn(p):
            tape = Tape()
            w = tape.param("w", p["w"])
            tape.mul(w, w)
            return tape

        report = grad_check(loss_fn, {"w": scalar(3.0)}, step=1e-3, tol=1e-9)
        assert report.passed
        assert report.entries[0].max_rel_err < 1e-9
        assert "PASS" in report.render()

    def test_abs_at_zero_flagged_unreliable(self):
        def loss_fn(p):
            tape = Tape()
            tape.mul(tape.param("w", p["w"]), tape.const(np.sign(p["w"])))  # |w|
            return tape

        report = grad_check(loss_fn, {"w": scalar(0.0)}, step=1e-3, tol=1e-4)
        assert report.entries[0].unreliable
        assert "unreliable" in report.render()

    def test_non_finite_loss_reported_as_failure(self):
        # sqrt goes NaN when the probe pushes w below zero
        def loss_fn(p):
            tape = Tape()
            tape.param("w", p["w"])
            with np.errstate(invalid="ignore"):
                tape.const(np.sqrt(p["w"]))
            return tape

        report = grad_check(loss_fn, {"w": scalar(0.0005)}, step=1e-3, tol=1e-4)
        entry = report.entries[0]
        assert not entry.ok
        assert "non-finite" in entry.note

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError, match="step"):
            grad_check(lambda p: Tape(), {}, step=0.0)


# Each builder wires one primitive into a squared-error loss. Targets are
# offset from the op's actual output so the outer derivative stays bounded
# away from zero and finite differences are trustworthy.
def _offset_target(rng, value):
    return value + np.sign(rng.normal(0, 1, value.shape) + 0.01) * rng.uniform(
        0.5, 1.0, value.shape
    )


def _removed_case(rng, in_shape, out_shape):
    """Stands in for the case of a tape op that no longer exists: it draws
    that case's input here and, through the test loop, its target, so the
    cases after it keep their inputs and targets. It checks no gradient."""
    rng.normal(0, 1, in_shape)
    return {}, lambda tp, p: tp.const(np.zeros(out_shape))


def _primitive_cases(rng):
    cases = {}
    cases["conv2d"] = (
        {"x": rng.normal(0, 1, (2, 3, 3)), "k": rng.normal(0, 0.6, (2, 2, 3, 3)), "b": rng.normal(0, 0.5, 2)},
        lambda tp, p: tp.conv2d(tp.param("x", p["x"]), tp.param("k", p["k"]), tp.param("b", p["b"])),
    )
    cases["affine"] = (
        {"x": rng.normal(0, 1, 4), "w": rng.normal(0, 0.6, (3, 4)), "b": rng.normal(0, 0.5, 3)},
        lambda tp, p: tp.affine(tp.param("x", p["x"]), tp.param("w", p["w"]), tp.param("b", p["b"])),
    )
    cases["sigmoid"] = (
        {"x": rng.normal(0, 1.2, 6)},
        lambda tp, p: tp.sigmoid(tp.param("x", p["x"])),
    )
    cases["tanh"] = (
        {"x": rng.normal(0, 1.2, 6)},
        lambda tp, p: tp.tanh(tp.param("x", p["x"])),
    )
    cases["hadamard"] = (
        {"a": rng.normal(0, 1, (2, 3)), "b": rng.normal(0, 1, (2, 3))},
        lambda tp, p: tp.mul(tp.param("a", p["a"]), tp.param("b", p["b"])),
    )
    cases["add"] = (
        {"a": rng.normal(0, 1, (2, 3)), "b": rng.normal(0, 1, (2, 3))},
        lambda tp, p: tp.add(tp.param("a", p["a"]), tp.param("b", p["b"])),
    )
    cases["global_avg_pool"] = (
        {"x": rng.normal(0, 1, (3, 4, 4))},
        lambda tp, p: tp.global_avg_pool(tp.param("x", p["x"])),
    )
    cases["removed: avg_pool2d"] = _removed_case(rng, (2, 5, 5), (2, 3, 3))
    cases["concat_slice"] = (
        {"x": rng.normal(0, 1, (4, 2))},
        lambda tp, p: tp.concat0(
            [tp.slice0(tp.param("x", p["x"]), 2, 4), tp.slice0(tp.params["x"], 0, 2)]
        ),
    )
    cases["removed: scale"] = _removed_case(rng, (5,), (5,))
    # Both outputs go into the loss, so c_t's gradient arrives from outside
    # as well as through h_t.
    cases["lstm_cell_maps"] = (
        {"pre": rng.normal(0, 1, (8, 2, 3)), "c": rng.normal(0, 1, (2, 2, 3))},
        lambda tp, p: tp.concat0(list(tp.lstm_cell(tp.param("pre", p["pre"]), tp.param("c", p["c"])))),
    )
    cases["lstm_cell_vectors"] = (
        {"pre": rng.normal(0, 1, 12), "c": rng.normal(0, 1, 3)},
        lambda tp, p: tp.concat0(list(tp.lstm_cell(tp.param("pre", p["pre"]), tp.param("c", p["c"])))),
    )
    return cases


@pytest.mark.parametrize("seed", range(20))
def test_every_primitive_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    for name, (params, build) in _primitive_cases(rng).items():
        probe = Tape()
        out_value = build(probe, params).value
        target = _offset_target(rng, out_value)

        def loss_fn(p):
            tape = Tape()
            tape.squared_error(build(tape, p), tape.const(target))
            return tape

        report = grad_check(loss_fn, params, step=1e-3, tol=1e-4)
        assert report.passed, f"{name} (seed {seed}):\n{report.render()}"


@pytest.mark.parametrize("seed", range(20))
def test_squared_error_and_mean_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    params = {"p": rng.normal(0, 1, 4), "q": rng.normal(2.0, 0.3, 4)}

    def loss_fn(p):
        tape = Tape()
        a = tape.squared_error(tape.param("p", p["p"]), tape.param("q", p["q"]))
        b = tape.squared_error(tape.const(np.zeros(4)), tape.params["q"])
        tape.mean_scalars([a, tape.mul(b, tape.const(scalar(0.5)))])
        return tape

    report = grad_check(loss_fn, params, step=1e-3, tol=1e-4)
    assert report.passed, report.render()


# grad_check probes every element: at the benchmark geometry that is 7,561
# ConvLSTM weights, each needing two forward passes over the batch. A seeded
# handful of elements per tensor still reaches every tensor of both layers
# and the head, and finishes in seconds.
@pytest.mark.parametrize("kind,stacks", [("conv-lstm", 2), ("fc-lstm", 1)])
def test_benchmark_geometry_batch_loss_matches_finite_differences(kind, stacks):
    spec = ModelSpec(kind, stacks=stacks, hidden=8, kernel=3, in_t=5, in_c=2, in_h=8, in_w=8)
    records = synth_generate(
        SynthConfig(count=6, t=5, c=2, h=8, w=8, noise=0.02, a=0.5, b=1.0, seed=42)
    )
    batch = [(preprocess(r.frames, spec), np.array([r.label])) for r in records]
    params = init_params(spec, seed=42).named_parameters()

    def batch_loss(values):
        tape = Tape()
        lifted = Model.from_named(spec, {n: tape.param(n, a) for n, a in values.items()})
        tape.mean_scalars(
            [tape.squared_error(build_prediction(tape, lifted, x), tape.const(y)) for x, y in batch]
        )
        return tape

    tape = batch_loss(params)
    tape.forward()
    analytic = tape.backward()
    step = 1e-5
    rng = np.random.default_rng(42)
    report = GradCheckReport(step=step, tol=1e-4)
    for name, arr in params.items():
        worst = 0.0
        for flat in rng.choice(arr.size, size=min(3, arr.size), replace=False):
            idx = np.unravel_index(flat, arr.shape)
            plus, minus = arr.copy(), arr.copy()
            plus[idx] += step
            minus[idx] -= step
            lp = batch_loss({**params, name: plus}).forward()
            lm = batch_loss({**params, name: minus}).forward()
            worst = max(worst, _rel_err(float(analytic[name][idx]), (lp - lm) / (2.0 * step)))
        report.entries.append(GradCheckEntry(name, worst, worst <= report.tol))
    assert report.passed, report.render()


def _unfused_lstm_cell(tape, pre, c_prev, hidden):
    """The gate chain of one LSTM step, from the primitive tape ops."""
    gates = tape.sigmoid(tape.slice0(pre, 0, 3 * hidden))
    i = tape.slice0(gates, 0, hidden)
    f = tape.slice0(gates, hidden, 2 * hidden)
    o = tape.slice0(gates, 2 * hidden, 3 * hidden)
    g = tape.tanh(tape.slice0(pre, 3 * hidden, 4 * hidden))
    c_t = tape.add(tape.mul(f, c_prev), tape.mul(i, g))
    return c_t, tape.mul(o, tape.tanh(c_t))


@pytest.mark.parametrize("conv", [True, False], ids=["maps", "vectors"])
@pytest.mark.parametrize("seed", range(3))
def test_lstm_cell_matches_unfused_composition_bitwise(seed, conv):
    rng = np.random.default_rng(seed)
    hidden = 3
    if conv:
        xs = [rng.normal(0, 1, (2, 5, 5)) for _ in range(2)]
        wx = rng.normal(0, 0.6, (4 * hidden, 2, 3, 3))
        wh = rng.normal(0, 0.6, (4 * hidden, hidden, 3, 3))
        state_shape = (hidden, 5, 5)
    else:
        xs = [rng.normal(0, 1, 4) for _ in range(2)]
        wx = rng.normal(0, 0.6, (4 * hidden, 4))
        wh = rng.normal(0, 0.6, (4 * hidden, hidden))
        state_shape = (hidden,)
    params = {"wx": wx, "wh": wh, "b": rng.normal(0, 0.5, 4 * hidden)}
    targets = [rng.normal(0, 1, hidden) for _ in xs]

    def run(cell):
        tape = Tape()
        wx, wh, b = (tape.param(name, params[name]) for name in ("wx", "wh", "b"))
        h = tape.const(np.zeros(state_shape))
        c = tape.const(np.zeros(state_shape))
        losses = []
        # Every step's h feeds the next step and the loss, and every c feeds
        # its h and the next step: the fan-outs of a stacked encoder.
        for x, y in zip(xs, targets):
            if conv:
                pre = tape.add(tape.conv2d(tape.const(x), wx, b), tape.conv2d(h, wh))
                c, h = cell(tape, pre, c, hidden)
                out = tape.global_avg_pool(h)
            else:
                pre = tape.add(tape.affine(tape.const(x), wx, b), tape.affine(h, wh))
                c, h = cell(tape, pre, c, hidden)
                out = h
            losses.append(tape.squared_error(out, tape.const(y)))
        tape.mean_scalars(losses)
        loss = tape.forward()
        first = {n: g.tobytes() for n, g in tape.backward().items()}
        second = {n: g.tobytes() for n, g in tape.backward().items()}
        assert first == second
        return h.value.tobytes(), c.value.tobytes(), loss, first

    fused = run(lambda tape, pre, c, hidden: tape.lstm_cell(pre, c))
    assert fused == run(_unfused_lstm_cell)


def test_backward_frees_each_gradient_once_consumed_and_reruns():
    # 200 products of a 1 MB array: a walk that kept the consumed gradients
    # would hold 200 MB of them; one that frees them holds about two at a time
    x = np.random.default_rng(3).uniform(-1.0, 1.0, 131_072)
    tape = Tape()
    node = tape.param("x", x)
    factor = tape.const(np.full_like(x, 0.99))
    for _ in range(200):
        node = tape.mul(node, factor)
    tape.squared_error(node, tape.const(np.zeros_like(x)))
    tape.forward()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        first = tape.backward()["x"].tobytes()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 5_000_000, (peak, start)
    assert tape.backward()["x"].tobytes() == first


def test_lstm_cell_rejects_wrong_gate_rows():
    tape = Tape()
    with pytest.raises(ShapeError, match="lstm_cell"):
        tape.lstm_cell(tape.const(np.zeros(6)), tape.const(np.zeros(2)))


def _loop_conv2d(x, k, b, g):
    """conv2d's value and gradients with the column matrix built and summed
    back by one slice-copy or in-place add per kernel offset (dy, dx)."""
    c, h, w = x.shape
    o, _, kh, kw = k.shape
    ph, pw = kh // 2, kw // 2
    padded = np.zeros((c, h + 2 * ph, w + 2 * pw))
    padded[:, ph : ph + h, pw : pw + w] = x
    cols = np.empty((c, kh, kw, h, w))
    for dy in range(kh):
        for dx in range(kw):
            cols[:, dy, dx] = padded[:, dy : dy + h, dx : dx + w]
    cols = cols.reshape(c * kh * kw, h * w)
    kmat = k.reshape(o, c * kh * kw)
    out = (kmat @ cols).reshape(o, h, w) + b[:, None, None]
    gm = g.reshape(o, h * w)
    dcols = (kmat.T @ gm).reshape(c, kh, kw, h, w)
    dpad = np.zeros((c, h + 2 * ph, w + 2 * pw))
    for dy in range(kh):
        for dx in range(kw):
            dpad[:, dy : dy + h, dx : dx + w] += dcols[:, dy, dx]
    gx = dpad[:, ph : ph + h, pw : pw + w]
    gk = (gm @ cols.T).reshape(o, c, kh, kw)
    return out, gx, gk, g.sum(axis=(1, 2))


@pytest.mark.parametrize(
    "c, o, kh, kw, h, w, grad",
    [
        (2, 3, 1, 1, 4, 6, "normal"),
        (3, 2, 3, 3, 5, 7, "normal"),
        (1, 4, 3, 3, 6, 6, "normal"),
        (2, 2, 5, 5, 7, 4, "normal"),
        (1, 2, 3, 5, 3, 8, "normal"),
        (2, 3, 3, 3, 4, 5, "zero"),
        (2, 3, 5, 3, 5, 4, "signed zeros"),
        (1, 1, 1, 1, 3, 4, "signed zeros"),
    ],
)
def test_conv2d_matches_loop_im2col_bitwise(c, o, kh, kw, h, w, grad):
    rng = np.random.default_rng(c * 100 + kh * 10 + kw)
    x = rng.normal(0, 1, (c, h, w))
    k = rng.normal(0, 1, (o, c, kh, kw))
    b = rng.normal(0, 1, o)
    g = {
        "normal": rng.normal(0, 1, (o, h, w)),
        "zero": np.zeros((o, h, w)),
        "signed zeros": np.where(rng.random((o, h, w)) < 0.5, -0.0, 0.0),
    }[grad]
    x[0, 0, 0] = -0.0
    tape = Tape()
    node = tape.conv2d(tape.param("x", x), tape.param("k", k), tape.param("b", b))
    columns = c * kh * kw * h * w

    def held_sizes():
        cells = [cell.cell_contents for cell in node.vjp.__closure__ or ()]
        return [a.size for a in cells if isinstance(a, np.ndarray)]

    assert columns not in held_sizes()
    got = (node.value, *node.vjp(g))
    assert columns not in held_sizes()
    want = _loop_conv2d(x, k, b, g)
    for name, a, e in zip(("value", "gx", "gk", "gb"), got, want):
        assert a.shape == e.shape, name
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(e).tobytes(), name


@pytest.mark.parametrize("kh, kw", [(1, 1), (3, 3), (5, 3)])
def test_col2im_sums_from_positive_zero_in_offset_order(kh, kw):
    # the VJP GEMM sums from +0.0 and yields no -0.0, so feed _col2im directly
    c, h, w = 2, 4, 5
    rng = np.random.default_rng(kh * 10 + kw)
    dcols = rng.normal(0, 1, (c, kh, kw, h, w))
    dcols[rng.random(dcols.shape) < 0.4] = -0.0
    dcols[0, 0, 0, 1, 1] = 1e308  # order-dependent overflow with the next one
    dcols[0, -1, -1, 1, 1] = 1e308
    ph, pw = kh // 2, kw // 2
    dpad = np.zeros((c, h + 2 * ph, w + 2 * pw))
    for dy in range(kh):
        for dx in range(kw):
            dpad[:, dy : dy + h, dx : dx + w] += dcols[:, dy, dx]
    want = dpad[:, ph : ph + h, pw : pw + w]
    got = T._col2im(dcols.reshape(c * kh * kw, h * w), c, kh, kw, h, w)
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def _layer_case(rng, conv, k=3, steps=3, hidden=2, channels=2):
    """A chunk of k distinct records and two stacked cells' fused gate
    tensors: wx, wh and b stack the i, f, o and g gates along axis 0."""
    spatial = (3, 3) if conv else ()
    window = (3, 3) if conv else ()
    fan_in = channels if conv else channels * 4
    params = {"x": rng.normal(0, 1, (k, steps, fan_in) + spatial)}
    for layer, cin in enumerate((fan_in, hidden)):
        params[f"wx{layer}"] = rng.normal(0, 0.5, (4 * hidden, cin) + window)
        params[f"wh{layer}"] = rng.normal(0, 0.5, (4 * hidden, hidden) + window)
        params[f"b{layer}"] = rng.normal(0, 0.5, 4 * hidden)
    return params


def _two_layers(tape, p):
    x = p["x"]
    x = tape.lstm_layer(x, p["wx0"], p["wh0"], p["b0"])
    return tape.lstm_layer(x, p["wx1"], p["wh1"], p["b1"], last=True)


@pytest.mark.parametrize("conv", [True, False], ids=["conv", "fc"])
def test_lstm_layer_over_a_chunk_matches_finite_differences(conv):
    # The input is a parameter too, so the input gradient of both layers is
    # checked; each record's top state goes into the loss through index0.
    rng = np.random.default_rng(23)
    params = _layer_case(rng, conv)
    probe = Tape()
    top = _two_layers(probe, {n: probe.const(a) for n, a in params.items()})
    targets = _offset_target(rng, top.value)
    assert len({targets[r].tobytes() for r in range(3)}) == 3
    assert len({params["x"][r].tobytes() for r in range(3)}) == 3

    def loss_fn(values):
        tape = Tape()
        top = _two_layers(tape, {n: tape.param(n, a) for n, a in values.items()})
        tape.mean_scalars(
            [tape.squared_error(tape.index0(top, r), tape.const(targets[r])) for r in range(3)]
        )
        return tape

    report = grad_check(loss_fn, params, step=1e-3, tol=1e-4)
    assert report.passed, report.render()


@pytest.mark.parametrize("conv", [True, False], ids=["conv", "fc"])
@pytest.mark.parametrize("seed", range(3))
def test_lstm_layer_matches_the_step_chain_bitwise(seed, conv):
    # The reference runs each record on its own conv2d/affine, add and
    # lstm_cell steps, through its own copy of the weights (a one-item
    # concat0, as build_prediction fused each record's gates): each record's
    # gradient is summed over its steps, then the records in order.
    rng = np.random.default_rng(seed)
    hidden, k, steps = 3, 3, 4
    params = _layer_case(rng, conv, k=k, steps=steps, hidden=hidden)
    xs = params.pop("x")
    targets = rng.normal(0, 1, (k, hidden) + ((3, 3) if conv else ()))
    project = Tape.conv2d if conv else Tape.affine

    def chain(tape, p):
        tops = []
        for r in range(k):
            seq = [tape.const(x) for x in xs[r]]
            for layer in range(2):
                wx, wh, b = (tape.concat0([p[f"{w}{layer}"]]) for w in ("wx", "wh", "b"))
                h = c = tape.const(np.zeros((hidden,) + xs.shape[3:]))
                out = []
                for x in seq:
                    pre = tape.add(project(tape, x, wx, b), project(tape, h, wh))
                    c, h = tape.lstm_cell(pre, c)
                    out.append(h)
                seq = out
            tops.append(seq[-1])
        return tops

    def chunk(tape, p):
        top = _two_layers(tape, {**p, "x": tape.const(xs)})
        return [tape.index0(top, r) for r in range(k)]

    def run(build):
        tape = Tape()
        tops = build(tape, {n: tape.param(n, a) for n, a in params.items()})
        tape.mean_scalars([tape.squared_error(h, tape.const(y)) for h, y in zip(tops, targets)])
        loss = tape.forward()
        first = {n: g.tobytes() for n, g in tape.backward().items()}
        assert first == {n: g.tobytes() for n, g in tape.backward().items()}
        return [h.value.tobytes() for h in tops], loss, first

    assert run(chunk) == run(chain)


def test_seed_starts_the_sum_of_a_nodes_gradient():
    # 0.1 + 0.2 + 0.3 is not 0.1 + (0.2 + 0.3): the seed comes first
    tape = Tape()
    w = tape.param("w", scalar(1.0))
    tape.seed(w, scalar(0.1))
    tape.add(tape.mul(w, tape.const(scalar(0.2))), tape.mul(w, tape.const(scalar(0.3))))
    tape.forward()
    assert tape.backward()["w"][0] == (0.1 + 0.2) + 0.3


def test_lstm_layer_rejects_mismatched_gates():
    tape = Tape()
    x = tape.const(np.zeros((1, 2, 3)))
    with pytest.raises(ShapeError, match="lstm_layer"):
        tape.lstm_layer(x, tape.const(np.zeros((8, 4))), tape.const(np.zeros((8, 2))),
                        tape.const(np.zeros(8)))


def test_index0_gradients_sum_into_their_items_exactly():
    # Item 0's gradient is -0.0; a +0.0 fill from item 1's VJP would turn it
    # into +0.0 in the sum.
    tape = Tape()
    x = tape.param("x", np.array([[2.0], [3.0]]))
    a = tape.mul(tape.index0(x, 0), tape.const(scalar(-0.0)))
    b = tape.mul(tape.index0(x, 1), tape.const(scalar(0.5)))
    tape.add(a, b)
    tape.forward()
    grad = tape.backward()["x"]
    assert grad.tobytes() == np.array([[-0.0], [0.5]]).tobytes()
