import tracemalloc

import numpy as np
import pytest

import numeric_reference as ref

from stablegfn.approximator import (
    LEAKY_SLOPE,
    AdamOptimizer,
    Mlp,
    NonFiniteError,
    ParamVector,
    Tabular,
    _decode_array,
    clip_grad_norm,
    grad_check,
    load_checkpoint,
    save_checkpoint,
)


def test_clip_grad_norm_passthrough():
    g = np.array([3.0, 4.0])
    assert np.array_equal(clip_grad_norm(g, 10.0), g)


def test_clip_grad_norm_rescales():
    g = np.array([30.0, 40.0])
    clipped = clip_grad_norm(g, 10.0)
    assert clipped == pytest.approx([6.0, 8.0])
    assert np.linalg.norm(clipped) == pytest.approx(10.0)


def test_clip_grad_norm_zero_and_idempotent():
    z = np.zeros(4)
    assert np.array_equal(clip_grad_norm(z, 10.0), z)
    g = np.array([300.0, 400.0])
    once = clip_grad_norm(g, 10.0)
    assert np.allclose(clip_grad_norm(once, 10.0), once)


def test_clip_grad_norm_rejects_nonfinite():
    with pytest.raises(NonFiniteError):
        clip_grad_norm(np.array([1.0, np.nan]), 10.0)


def test_param_vector_views_share_storage():
    pv = ParamVector([("a", (2, 2)), ("b", (3,)), ("z", ())])
    pv.view("a")[...] = 7.0
    assert pv.values[:4].tolist() == [7.0] * 4
    assert pv.view("z").shape == ()
    lo, hi = pv.slice_bounds("b")
    assert hi - lo == 3


def test_mlp_zero_weights_give_zero_logits():
    net = Mlp(3, (4, 4), 2, "pf")
    pv = ParamVector(net.param_spec())
    net.bind(pv)
    out, _ = net.forward(np.ones((5, 3)))
    assert np.array_equal(out, np.zeros((5, 2)))


def test_mlp_hand_evaluation():
    # 1-wide everywhere; first weight 2, rest identity: 0.5 -> 1.0
    net = Mlp(1, (1, 1), 1, "pf")
    pv = ParamVector(net.param_spec())
    net.bind(pv)
    pv.view("pf.w0")[...] = 2.0
    pv.view("pf.w1")[...] = 1.0
    pv.view("pf.w2")[...] = 1.0
    out, _ = net.forward(np.array([[0.5]]))
    assert out[0, 0] == pytest.approx(1.0)


def test_mlp_leaky_negative_slope():
    net = Mlp(1, (1, 1), 1, "pf")
    pv = ParamVector(net.param_spec())
    net.bind(pv)
    pv.view("pf.w0")[...] = 1.0
    pv.view("pf.w1")[...] = 1.0
    pv.view("pf.w2")[...] = 1.0
    out, _ = net.forward(np.array([[-1.0]]))
    # two leaky layers: -1 -> -0.01 -> -0.0001
    assert out[0, 0] == pytest.approx(-1e-4)


def test_adam_zero_gradient_moves_nothing():
    pv = ParamVector([("w", (4,))])
    pv.view("w")[...] = [1.0, -2.0, 3.0, 0.5]
    before = pv.values.copy()
    opt = AdamOptimizer(pv, lr=0.1)
    pv.zero_grad()
    opt.step()
    assert np.array_equal(pv.values, before)


def test_adam_per_slice_learning_rate():
    pv = ParamVector([("w", (1,)), ("logz", ())])
    opt = AdamOptimizer(pv, lr=0.01, lr_overrides={"logz": 1.0}, max_grad_norm=None)
    pv.grads[...] = 1.0
    opt.step()
    # both slices see unit gradient; step magnitude is the slice learning rate
    assert abs(pv.view("w")[0]) == pytest.approx(0.01, rel=1e-6)
    assert abs(pv.view("logz")[()]) == pytest.approx(1.0, rel=1e-6)


def test_adam_rejects_nonfinite_gradient():
    pv = ParamVector([("w", (2,))])
    opt = AdamOptimizer(pv, lr=0.1)
    pv.grads[...] = [np.inf, 0.0]
    with pytest.raises(NonFiniteError):
        opt.step()


def _adam_pair(values, lr_overrides=None, **kw):
    """An optimizer over one flat slice "w" (plus "logz") and its reference twin."""
    pv = ParamVector([("w", (values.size - 1,)), ("logz", ())])
    pv.values[...] = values
    opt = AdamOptimizer(pv, lr=0.01, lr_overrides=lr_overrides, **kw)
    twin = ref.AdamReference(values, _lr_vector(pv, 0.01, lr_overrides), **kw)
    return pv, opt, twin


def _lr_vector(pv, lr, lr_overrides):
    """The learning rate of every parameter, as the reference reads it."""
    rates = np.full(pv.size, lr)
    for name, rate in (lr_overrides or {}).items():
        lo, hi = pv.slice_bounds(name)
        rates[lo:hi] = rate
    return rates


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _snapshot(pv, opt):
    return pv.values.copy(), opt.m.copy(), opt.v.copy(), opt.step_count


@pytest.mark.parametrize("max_grad_norm", [10.0, None], ids=["clipped", "unclipped"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adam_nonfinite_gradient_is_rejected(max_grad_norm, bad):
    rng = np.random.default_rng(0)
    pv, opt, _ = _adam_pair(rng.normal(size=6), max_grad_norm=max_grad_norm)
    pv.grads[...] = rng.normal(size=6)
    opt.step()
    values, m, v, count = _snapshot(pv, opt)
    pv.grads[2] = bad
    with pytest.raises(NonFiniteError), np.errstate(invalid="ignore"):
        opt.step()
    assert _same_bits(pv.values, values)
    if max_grad_norm is not None:
        # the clip rejects the gradient before anything moves
        assert _same_bits(opt.m, m) and _same_bits(opt.v, v)
        assert opt.step_count == count
    else:
        # unclipped, the moments take the gradient and the update check rejects it
        assert opt.step_count == count + 1
        assert not np.isfinite(opt.m[2]) and not np.isfinite(opt.v[2])


def test_adam_nonfinite_update_keeps_new_moments():
    # eps = 0 and a zero gradient entry on the first step: 0/0 in the update
    values = np.array([1.0, -2.0, 3.0, 0.5])
    pv, opt, twin = _adam_pair(values, eps=0.0)
    pv.grads[...] = [0.0, 1.0, -2.0, 0.25]
    with np.errstate(invalid="ignore"):  # 0/0 on purpose
        with pytest.raises(NonFiniteError, match="optimizer update"):
            opt.step()
        with pytest.raises(NonFiniteError, match="optimizer update"):
            twin.step(pv.grads)
    assert _same_bits(pv.values, values)
    assert opt.step_count == 1
    assert _same_bits(opt.m, twin.m) and _same_bits(opt.v, twin.v)
    assert np.count_nonzero(opt.m) == 3


def test_adam_overflow_leaves_nonfinite_parameters():
    values = np.array([-1.7e308, 1.0, 2.0])
    pv = ParamVector([("w", (3,))])
    pv.values[...] = values
    opt = AdamOptimizer(pv, lr=1e308)
    pv.grads[...] = [1.0, 0.0, 0.0]
    with pytest.raises(NonFiniteError, match="parameter vector"), np.errstate(over="ignore"):
        opt.step()
    assert pv.values[0] == -np.inf
    assert _same_bits(pv.values[1:], values[1:])
    assert opt.step_count == 1


@pytest.mark.parametrize("case", [
    {"max_grad_norm": 1e-9},  # the clip scales every step
    {"max_grad_norm": 1e9},  # the clip never scales
    {"max_grad_norm": None},
    {"max_grad_norm": 10.0, "lr_overrides": {"logz": 1.0}},  # scales on some steps
], ids=["clip-active", "clip-inactive", "no-clip", "logz-lr"])
def test_adam_matches_reference_bitwise(case):
    rng = np.random.default_rng(7)
    pv, opt, twin = _adam_pair(rng.normal(size=1000), **case)
    clipped = []
    for _ in range(200):
        g = rng.normal(size=pv.size) * 10.0 ** rng.uniform(-7, 2)
        pv.grads[...] = g
        opt.step()
        twin.step(g)
        if case["max_grad_norm"] is not None:
            clipped.append(np.linalg.norm(g) > case["max_grad_norm"])
        assert _same_bits(pv.values, twin.values)
        assert _same_bits(opt.m, twin.m) and _same_bits(opt.v, twin.v)
        assert _same_bits(pv.grads, g)  # the clip scales a copy
    if case["max_grad_norm"] == 10.0:
        assert 0 < sum(clipped) < len(clipped)


@pytest.mark.parametrize("lr_overrides", [None, {"logz": 1.0}, {"logz": 1.0, "b": 0.5}],
                         ids=["scalar", "logz", "logz-and-b"])
def test_adam_scalar_rates_match_lr_vector_reference(lr_overrides):
    rng = np.random.default_rng(3)
    pv = ParamVector([("a", (7,)), ("logz", ()), ("b", (5,))])
    pv.values[...] = rng.normal(size=pv.size)
    opt = AdamOptimizer(pv, lr=0.01, lr_overrides=lr_overrides)
    twin = ref.AdamReference(pv.values, _lr_vector(pv, 0.01, lr_overrides))
    for _ in range(50):
        g = rng.normal(size=pv.size) * 10.0 ** rng.uniform(-3, 2)
        pv.grads[...] = g
        opt.step()
        twin.step(g)
    assert _same_bits(pv.values, twin.values)
    assert _same_bits(opt.m, twin.m) and _same_bits(opt.v, twin.v)


def test_adam_finite_gradient_whose_norm_overflows_is_zeroed():
    values = np.array([1.0, -2.0, 3.0, 0.5])
    pv, opt, twin = _adam_pair(values)
    g = np.array([1e200, -1e200, 1.0, 0.0])  # every entry finite, the norm is inf
    pv.grads[...] = g
    with np.errstate(over="ignore"):
        assert np.linalg.norm(g) == np.inf
        opt.step()
        twin.step(g)
    # the clip scales by 10 / inf: the moments take a zero gradient, nothing moves
    assert opt.step_count == 1
    assert not np.any(opt.m) and not np.any(opt.v)
    assert _same_bits(pv.values, values) and _same_bits(pv.values, twin.values)


def test_adam_overflowing_update_keeps_new_moments():
    values = np.array([1.0, -2.0, 3.0])
    pv = ParamVector([("w", (3,))])
    pv.values[...] = values
    opt = AdamOptimizer(pv, lr=1e308, max_grad_norm=None)
    pv.grads[...] = [10.0, 0.0, 0.0]  # lr * (m / c1) = 1e309: the update overflows
    with pytest.raises(NonFiniteError, match="optimizer update"), np.errstate(over="ignore"):
        opt.step()
    assert _same_bits(pv.values, values)
    assert opt.step_count == 1
    assert opt.m[0] > 0 and opt.v[0] > 0 and not np.any(opt.m[1:])


def test_adam_accepts_finite_update_and_parameters_whose_sums_overflow():
    pv = ParamVector([("w", (2,))])
    opt = AdamOptimizer(pv, lr=1e308, max_grad_norm=None)
    pv.grads[...] = 1.0  # each update entry is 1e308 / (1 + 1e-8): their sum is inf
    with np.errstate(over="ignore"):
        opt.step()
        assert np.all(np.isfinite(pv.values)) and pv.values.sum() == -np.inf
    assert _same_bits(pv.values, np.full(2, -(1e308 / (1.0 + 1e-8))))


def test_adam_step_allocates_less_than_one_parameter_vector():
    n = 100_000
    rng = np.random.default_rng(1)
    pv = ParamVector([("w", (n,))])
    pv.values[...] = rng.normal(size=n)
    opt = AdamOptimizer(pv, lr=1e-3, max_grad_norm=10.0)
    pv.grads[...] = rng.normal(size=n) * 100.0  # norm ~3e4: the clip scales
    opt.step()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        opt.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < pv.values.nbytes


def _special_values_input(rng, pv):
    x = rng.normal(size=(40, 6)) * 10.0 ** rng.uniform(-3, 3, size=(40, 1))
    x[0] = 0.0
    x[1] = -0.0
    x[2, 1], x[3, 2], x[4, 3] = np.nan, np.inf, -np.inf
    pv.view("pf.b0")[:3] = -0.0
    return x


def _quiet(specials):
    """No invalid-value warning where the input holds NaN and infinities on purpose."""
    return np.errstate(invalid="ignore") if specials else np.errstate()


@pytest.mark.parametrize("dims, specials", [
    ((6, (9, 7), 4), True),  # +-0.0, NaN and +-inf reach the pre-activations
    ((16, (64, 32), 5), False),  # random signs, as in training
], ids=["special-values", "random-signs"])
def test_mlp_matches_reference_bitwise(dims, specials):
    rng = np.random.default_rng(4)
    net = Mlp(*dims, "pf")
    pv = ParamVector(net.param_spec())
    net.bind(pv)
    net.init_params(rng)
    x = _special_values_input(rng, pv) if specials else rng.normal(size=(300, dims[0]))
    w = [pv.view(f"pf.w{i}") for i in range(3)]
    b = [pv.view(f"pf.b{i}") for i in range(3)]
    with _quiet(specials):
        out, cache = net.forward(x)
        want, want_cache = ref.mlp_forward(w, b, x)
    assert _same_bits(out, want)
    for got, expected in zip(cache, want_cache):
        assert _same_bits(got, expected)
    if specials:
        h = np.concatenate([want_cache[1].ravel(), want_cache[3].ravel()])
        assert np.isnan(h).any() and np.isposinf(h).any() and np.isneginf(h).any()
        assert (h > 0).any() and (h < 0).any() and (h == 0).any()

    dout = rng.normal(size=out.shape)
    pv.zero_grad()
    gw = [np.zeros_like(a) for a in w]
    gb = [np.zeros_like(a) for a in b]
    with _quiet(specials):
        net.backward(cache, dout)
        ref.mlp_backward(w, gw, gb, want_cache, dout)
    for i in range(3):
        assert _same_bits(pv.grad_view(f"pf.w{i}"), gw[i])
        assert _same_bits(pv.grad_view(f"pf.b{i}"), gb[i])


@pytest.mark.parametrize("dims, specials", [
    ((6, (9, 7), 4), True),
    ((16, (64, 32), 5), False),
], ids=["special-values", "random-signs"])
def test_mlp_forward_without_cache_matches_reference_bitwise(dims, specials):
    rng = np.random.default_rng(5)
    net = Mlp(*dims, "pf")
    pv = ParamVector(net.param_spec())
    net.bind(pv)
    net.init_params(rng)
    x = _special_values_input(rng, pv) if specials else rng.normal(size=(300, dims[0]))
    w = [pv.view(f"pf.w{i}") for i in range(3)]
    b = [pv.view(f"pf.b{i}") for i in range(3)]
    with _quiet(specials):
        out, cache = net.forward(x, cache=False)
        want = ref.mlp_forward(w, b, x)[0]
    assert cache is None
    assert _same_bits(out, want)


def test_leaky_slope_float64_identities():
    # the branch-free slope is (h > 0) * (1 - L) + L; both branches are exact
    assert (1.0 - LEAKY_SLOPE) + LEAKY_SLOPE == 1.0
    assert 0.0 * (1.0 - LEAKY_SLOPE) + LEAKY_SLOPE == LEAKY_SLOPE


def test_grad_check_quadratic_tabular():
    net = Tabular(3, 2, "t")
    pv = ParamVector(net.param_spec())
    net.bind(pv)
    rng = np.random.default_rng(0)
    pv.values[...] = rng.normal(size=pv.size)
    target = rng.normal(size=(3, 2))

    def value_and_grad():
        pv.zero_grad()
        diff = net.table - target
        pv.grad_view("t.table")[...] = 2 * diff
        return float((diff**2).sum())

    err = grad_check(pv, value_and_grad, rng)
    assert err < 1e-6


def test_grad_check_constant_loss():
    pv = ParamVector([("w", (5,))])

    def value_and_grad():
        pv.zero_grad()
        return 1.25

    assert grad_check(pv, value_and_grad, np.random.default_rng(0)) == 0.0


def test_checkpoint_round_trip_bit_exact(tmp_path):
    net = Mlp(3, (4, 4), 2, "pf")
    pv = ParamVector(net.param_spec() + [("logz", ())])
    net.bind(pv)
    rng = np.random.default_rng(3)
    pv.values[...] = rng.normal(size=pv.size)
    opt = AdamOptimizer(pv, lr=0.01)
    pv.grads[...] = rng.normal(size=pv.size)
    opt.step()

    path = tmp_path / "ckpt.json"
    save_checkpoint(str(path), pv, opt, {"kind": "mlp"}, {"kind": "tree"})
    doc = load_checkpoint(str(path))
    for name in pv.names:
        assert np.array_equal(doc["params"][name], pv.view(name))
    # the Adam moments are written bit-exactly, though loading leaves them encoded
    assert np.array_equal(_decode_array(doc["optimizer"]["m"]), opt.m)
    assert np.array_equal(_decode_array(doc["optimizer"]["v"]), opt.v)
    assert doc["optimizer"]["step_count"] == 1


def test_checkpoint_rejects_other_files(tmp_path):
    path = tmp_path / "not_ckpt.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        load_checkpoint(str(path))


def test_param_vector_refuses_a_duplicate_slice():
    with pytest.raises(ValueError, match="^duplicate parameter slice 'pf.w0'$"):
        ParamVector([("pf.w0", (2, 3)), ("pf.b0", (2,)), ("pf.w0", (3,))])


@pytest.mark.parametrize("hidden", [(), (8,), (8, 8, 8)])
def test_mlp_refuses_other_than_two_hidden_widths(hidden):
    with pytest.raises(ValueError, match="^expected exactly two hidden layer widths$"):
        Mlp(4, hidden, 3, "pf")
