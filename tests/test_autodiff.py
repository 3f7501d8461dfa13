import gc
import struct
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from efdp.autodiff import (
    ParameterStore,
    SerializationError,
    ShapeError,
    Tape,
    Tensor,
)
from efdp.config import Config
from efdp.layers import LstmCell, Mlp
from efdp.model import ParserModel
from efdp.oracle import Trainer
from efdp.represent import build_vocab, parse_pretrained
from helpers import TINY, check_gradients, tiny_model

floats = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def test_forward_values():
    t = Tape()
    assert np.array_equal(t.tanh(Tensor([0.0, 0.0, 0.0])).value, np.zeros((3, 1)))
    x = Tensor([1.0, -2.0, 3.0])
    assert np.array_equal(t.matmul(Tensor(np.eye(3)), x).value, x.value)
    assert t.logistic(Tensor([[0.0]])).item() == 0.5
    c = t.concat(Tensor([1.0]), Tensor([2.0, 3.0]))
    assert c.value[:, 0].tolist() == [1.0, 2.0, 3.0]
    assert t.pick_row(Tensor([[1.0, 2.0], [3.0, 4.0]]), 1).value[:, 0].tolist() == [3.0, 4.0]
    assert t.sum_all(x).item() == 2.0
    assert t.sub(Tensor([5.0]), Tensor([2.0])).item() == 3.0
    # rows o*2 + s of column j + s: 1+4, 2+5 and 3+6 in row 0, 10+40, 20+50 and 30+60 in row 1
    blocks = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [10.0, 20.0, 30.0], [40.0, 50.0, 60.0]])
    summed = t.window_sum([t.columns(blocks, [0]), t.columns(blocks, slice(1, 3)), Tensor([0.0, 6.0, 0.0, 60.0])], 2)
    assert summed.value.tolist() == [[6.0, 8.0, 9.0], [60.0, 80.0, 90.0]]


def test_shape_errors_name_the_op():
    t = Tape()
    with pytest.raises(ShapeError, match="matmul"):
        t.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError, match="add"):
        t.add(Tensor([1.0]), Tensor([1.0, 2.0]))
    with pytest.raises(ShapeError, match="add"):
        t.add(Tensor([1.0]), Tensor(np.ones((1, 2))))  # only the right operand broadcasts
    with pytest.raises(ShapeError, match="concat"):
        t.concat(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 1))))
    with pytest.raises(ShapeError, match="concat"):
        t.concat()
    with pytest.raises(ShapeError, match="pick_row"):
        t.pick_row(Tensor([1.0]), 3)
    with pytest.raises(ShapeError, match="pick_row"):
        t.pick_row(Tensor(np.ones((2, 3))), [0, 2])
    with pytest.raises(ShapeError, match="columns"):
        t.columns(Tensor(np.ones((2, 3))), [1, 3])
    with pytest.raises(ShapeError, match="columns"):
        t.columns(Tensor(np.ones((2, 3))), slice(3, 4))
    with pytest.raises(ShapeError, match="concat"):
        t.concat(Tensor(np.ones((2, 2))), Tensor(np.ones((3, 2))), axis=1)
    with pytest.raises(ShapeError, match="concat"):
        t.concat(axis=1)
    w_h, z = (Tensor(np.ones((8, 2))),), (Tensor(np.ones((8, 3))),)
    with pytest.raises(ShapeError, match="lstm"):  # a cell state for 2 of the 3 cells
        t.lstm(w_h, z, [3], state=(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2)))))
    with pytest.raises(ShapeError, match="lstm"):  # a step with more cells than the one before
        t.lstm(w_h, z, [1, 2])
    with pytest.raises(ShapeError, match="lstm"):  # steps that take 2 of the 3 columns
        t.lstm(w_h, z, [1, 1])
    with pytest.raises(ShapeError, match="lstm"):  # cols that write one column twice
        t.lstm(w_h, z, [3], [[0, 1, 1]])
    with pytest.raises(ShapeError, match="window_sum"):
        t.window_sum([Tensor(np.ones((4, 2))), Tensor(np.ones((2, 2)))], 2)  # unequal rows
    with pytest.raises(ShapeError, match="window_sum"):
        t.window_sum([Tensor(np.ones((3, 2)))], 2)  # rows not a multiple of the width
    with pytest.raises(ShapeError, match="window_sum"):
        t.window_sum([Tensor(np.ones((6, 2)))], 3)  # fewer columns than the width
    with pytest.raises(ShapeError, match="window_sum"):
        t.window_sum([], 1)


def test_non_finite_forward_is_an_error():
    for record in (True, False):
        t = Tape(record)
        huge = Tensor(np.full((1, 1), 1e308))
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="matmul"):
            t.matmul(huge, Tensor([[10.0]]))
        # an overflow before the fused LSTM gates would read as a saturated gate after them
        store = ParameterStore()
        cell = LstmCell(store, "cell", 2, 3, np.random.default_rng(0))
        store["cell/input/W_x"].value[:] = 1e308
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            cell.project(Tape(record), Tensor(np.full((2, 1), 10.0)))
        # so is one in a step's W_h h, which the step checks once for all its cells and directions
        store["cell/forget/W_h"].value[:] = 1e308
        state = (Tensor(np.full((6, 1), 10.0)), Tensor(np.zeros((6, 1))))  # both directions' (h, c)
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="lstm"):
            Tape(record).lstm((cell.stacked[1], cell.stacked[1]), (Tensor(np.zeros((12, 1))),) * 2, [1], state=state)
        # window_sum checks nothing itself: a non-finite product raises at the bias add after it
        mlp = Mlp(store, "mlp", (4, 2, 1), np.random.default_rng(0), slots=2)
        t = Tape(record)
        products = [Tensor([[np.inf], [1.0], [1.0], [1.0]]), Tensor(np.ones((4, 1)))]  # slot 0 of row 0
        z = t.window_sum(products, 2)
        assert not np.isfinite(z.value).all()
        with pytest.raises(FloatingPointError, match="add"):
            mlp.apply(t, z)


def test_finite_values_whose_sum_overflows_pass_the_check():
    for record in (True, False):
        with np.errstate(over="ignore"):  # numpy warns of the sum's overflow, which is no error
            out = Tape(record).add(Tensor([[1e308], [1e308]]), Tensor([[0.0], [0.0]]))
        assert np.array_equal(out.value, [[1e308], [1e308]])


def test_a_tape_that_does_not_record_keeps_nothing():
    x = Tensor([[0.5], [-1.0]])
    recording, bare = Tape(), Tape(record=False)
    outs = [t.sum_all(t.tanh(t.matmul(Tensor(np.ones((2, 2))), x))) for t in (recording, bare)]
    assert outs[0].value.tobytes() == outs[1].value.tobytes()
    assert len(recording) == 3 and len(bare) == 0
    with pytest.raises(RuntimeError, match="does not record"):
        bare.backward(outs[1])


def test_logistic_is_stable_for_large_inputs():
    t = Tape()
    out = t.logistic(Tensor([[800.0], [-800.0]]))
    assert out.value[0, 0] == pytest.approx(1.0)
    assert out.value[1, 0] == pytest.approx(0.0)


@pytest.mark.parametrize("op", ["matmul", "add", "sub", "pointwise_mul", "tanh", "logistic", "concat", "pick_row", "scale"])
def test_per_op_gradients_match_finite_differences(op):
    rng = np.random.default_rng(hash(op) % 2**32)
    store = ParameterStore()
    a = store.add("a", rng.uniform(-1, 1, (3, 2)))
    b = store.add("b", rng.uniform(-1, 1, (2, 1)))
    c = store.add("c", rng.uniform(-1, 1, (3, 1)))

    def build():
        t = Tape()
        if op == "matmul":
            out = t.matmul(a, b)
        elif op == "add":
            out = t.add(t.matmul(a, b), c)
        elif op == "sub":
            out = t.sub(t.matmul(a, b), c)
        elif op == "pointwise_mul":
            out = t.pointwise_mul(t.matmul(a, b), c)
        elif op == "tanh":
            out = t.tanh(t.matmul(a, b))
        elif op == "logistic":
            out = t.logistic(t.matmul(a, b))
        elif op == "concat":
            out = t.concat(t.matmul(a, b), b, c)
        elif op == "pick_row":
            out = t.pick_row(a, 1)
        elif op == "scale":
            out = t.scale(t.matmul(a, b), -1.7)
        return t, t.sum_all(out)

    check_gradients(build, store)


@pytest.mark.parametrize("op", ["add", "concat", "pick_row", "columns", "concat_columns", "lstm",
                                "lstm_steps", "window_sum"])
def test_column_batch_gradients_match_finite_differences(op):
    # every operand spans k = 3 columns, or is the one-column bias, row table or cell state fed to them
    rng = np.random.default_rng(sum(map(ord, op)))
    store = ParameterStore()
    a = store.add("a", rng.uniform(-1, 1, (4, 2)))
    x = store.add("x", rng.uniform(-1, 1, (2, 3)))
    c = store.add("c", rng.uniform(-1, 1, (4, 1)))
    y = store.add("y", rng.uniform(-1, 1, (3, 3)))
    weights = Tensor(rng.uniform(-1, 1, (9, 9)))  # so no two output entries share a gradient

    def build():
        t = Tape()
        ax = t.matmul(a, x)  # (4, 3)
        if op == "add":
            out = t.add(ax, c)
        elif op == "concat":
            out = t.concat(ax, x, y)
        elif op == "pick_row":
            out = t.pick_row(y, [2, 0, 2, 1])  # a repeated row sums its columns' gradients
        elif op == "columns":
            out = t.concat(t.columns(ax, [2, 0, 2]), t.columns(ax, slice(1, 3)), axis=1)
        elif op == "concat_columns":
            out = t.concat(ax, c, ax, axis=1)  # ax listed twice sums the gradients of both blocks
        elif op == "lstm":
            # one step of 3 cells from the state (rows of y, x); H = 2, and W_h is itself an op's output
            w_h = t.concat(a, t.scale(a, 0.5))
            state = (t.columns(y, [0, 1, 2], rows=slice(0, 2)), x)
            h, cell = t.lstm((w_h,), (t.concat(ax, t.scale(ax, -0.7)),), [3], state=state)
            out = t.concat(h, cell)
        elif op == "lstm_steps":
            # two directions over packed steps of 3, 2 and 1 cells, each direction's h scattered over
            # its own permutation of the 6 output columns; c stays in packed order
            z = t.concat(ax, t.scale(ax, -0.7))
            z = t.concat(z, t.columns(z, [2, 0, 1]), axis=1)
            w_h = t.concat(a, t.scale(a, 0.5))
            cols = [[0, 2, 4, 1, 3, 5], [5, 3, 1, 4, 2, 0]]
            h, cell = t.lstm((w_h, t.scale(w_h, -1.3)), (z, t.scale(z, 0.6)), [3, 2, 1], cols)
            out = t.concat(h, cell)
        elif op == "window_sum":
            # width 2 over [c, c, ax, c, c]: the repeated pad c sums the gradients of every slot it fills
            out = t.window_sum([c, c, ax, c, c], 2)
        rows, cols = out.value.shape
        return t, t.sum_all(t.pointwise_mul(Tensor(weights.value[:rows, :cols]), out))

    check_gradients(build, store)


def test_composite_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    store = ParameterStore()
    w = store.add("w", rng.uniform(-1, 1, (4, 3)))
    b = store.add("b", rng.uniform(-1, 1, (4, 1)))
    x = Tensor(rng.uniform(-1, 1, (3, 1)))
    target = Tensor(rng.uniform(-1, 1, (4, 1)))

    def build():
        t = Tape()
        y = t.tanh(t.add(t.matmul(w, x), b))
        d = t.sub(y, target)
        return t, t.sum_all(t.pointwise_mul(d, d))

    check_gradients(build, store)


def test_shared_weight_gradient_is_the_sum_of_per_call_products():
    rng = np.random.default_rng(3)
    store = ParameterStore()
    w = store.add("w", rng.uniform(-1, 1, (4, 3)))
    xs = [Tensor(rng.uniform(-1, 1, (3, k))) for k in (1, 1, 2, 1, 3, 1)]
    t = Tape()
    outs = [t.tanh(t.matmul(w, x)) for x in xs]
    loss = t.sum_all(outs[0])
    for out in outs[1:]:
        loss = t.add(loss, t.sum_all(out))
    t.backward(loss)
    expected = sum((1.0 - out.value**2) @ x.value.T for out, x in zip(outs, xs))
    np.testing.assert_allclose(w.grad, expected, rtol=1e-12)


def test_deferred_weight_gradients_match_finite_differences():
    # ab's gradient comes only from matmuls that use it as left operand, so it
    # must be complete before ab's own record runs
    rng = np.random.default_rng(5)
    store = ParameterStore()
    a = store.add("a", rng.uniform(-1, 1, (3, 3)))
    b = store.add("b", rng.uniform(-1, 1, (3, 3)))
    x = store.add("x", rng.uniform(-1, 1, (3, 2)))

    def build():
        t = Tape()
        ab = t.matmul(a, b)
        y = t.add(t.sum_all(t.tanh(t.matmul(ab, x))), t.sum_all(t.tanh(t.matmul(ab, ab))))
        return t, t.add(y, t.sum_all(t.tanh(t.matmul(a, a))))

    check_gradients(build, store)


def test_a_spent_tape_is_freed_without_the_cycle_collector():
    store = ParameterStore()
    cell = LstmCell(store, "cell", 2, 3, np.random.default_rng(0))
    gc.disable()
    try:
        t = Tape()
        h, _ = cell.step(t, cell.project(t, Tensor([0.5, -0.5])))
        t.backward(t.sum_all(h))
        tape = weakref.ref(t)
        del t, h
        assert tape() is None
    finally:
        gc.enable()


def test_sum_loss_gives_unit_gradients():
    store = ParameterStore()
    w = store.add("w", np.arange(6.0).reshape(3, 2))
    t = Tape()
    t.backward(t.sum_all(w))
    assert np.array_equal(w.grad, np.ones((3, 2)))


def test_unreachable_parameters_keep_zero_grad():
    # a gradient exists once backward writes one: an unreached parameter has none, which Adam reads as zero
    store = ParameterStore()
    w = store.add("w", np.ones((2, 1)))
    lonely = store.add("lonely", np.ones((2, 2)))
    assert w.grad is None and lonely.grad is None
    t = Tape()
    t.backward(t.sum_all(t.tanh(w)))
    assert w.grad is not None and lonely.grad is None


def test_backward_frees_only_the_gradients_of_its_own_op_outputs():
    store = ParameterStore()
    w = store.add("w", np.full((2, 2), 0.5))
    x = Tensor([1.0, -1.0])
    t = Tape()
    h = t.tanh(t.matmul(w, x))
    loss = t.sum_all(h)
    t.backward(loss)
    assert h.grad is None and loss.grad is None  # passed on, so the pass holds no stale blocks
    assert w.grad.any() and x.grad is not None
    # on a newer tape, h is a constant this tape did not make: it keeps its gradient
    t2 = Tape()
    t2.backward(t2.sum_all(t2.scale(h, 2.0)))
    assert np.array_equal(h.grad, np.full((2, 1), 2.0))


def test_backward_twice_is_an_error():
    t = Tape()
    loss = t.sum_all(Tensor([[1.0]]))
    t.backward(loss)
    with pytest.raises(RuntimeError, match="already ran"):
        t.backward(loss)


def test_backward_requires_scalar_loss():
    t = Tape()
    with pytest.raises(ShapeError):
        t.backward(t.tanh(Tensor([1.0, 2.0])))


def test_tape_determinism():
    def run():
        rng = np.random.default_rng(42)
        t = Tape()
        a = Tensor(rng.uniform(-1, 1, (5, 5)))
        x = Tensor(rng.uniform(-1, 1, (5, 1)))
        return t.sum_all(t.tanh(t.matmul(a, x))).item()

    assert run() == run()


@given(
    st.lists(floats, min_size=1, max_size=4),
    st.lists(floats, min_size=1, max_size=4),
    st.lists(floats, min_size=1, max_size=4),
)
def test_concat_is_associative(xs, ys, zs):
    t = Tape()
    a, b, c = Tensor(xs), Tensor(ys), Tensor(zs)
    left = t.concat(a, t.concat(b, c))
    right = t.concat(t.concat(a, b), c)
    assert np.array_equal(left.value, right.value)


# ---- Adam ----


def test_adam_zero_gradient_leaves_parameters_unchanged():
    store = ParameterStore()
    w = store.add("w", np.full((2, 2), 0.7))
    before = w.value.copy()
    store.adam_step(lr=0.5)
    assert np.array_equal(w.value, before)


def test_adam_first_step_magnitude_is_about_lr():
    # by hand: m-hat = g, v-hat = g*g, step = lr * g / (|g| + eps)
    store = ParameterStore()
    w = store.add("w", np.array([[1.0]]))
    w.grad = np.ones((1, 1))
    store.adam_step(lr=0.01)
    assert w.value[0, 0] == pytest.approx(1.0 - 0.01, abs=1e-9)
    assert w.grad is None  # grads dropped afterward


def reference_adam_scalar(x0, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """Independent scalar recurrence for f(x) = x^2."""
    x, m, v = x0, 0.0, 0.0
    for t in range(1, steps + 1):
        g = 2.0 * x
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        x -= lr * (m / (1 - beta1**t)) / ((v / (1 - beta2**t)) ** 0.5 + eps)
    return x


def test_adam_moments_appear_on_the_first_step_and_match_an_eager_reference():
    rng = np.random.default_rng(8)
    store = ParameterStore()
    w = store.add("w", rng.standard_normal((3, 2)))
    assert not store._moments
    x, m, v = w.value.copy(), np.zeros((3, 2)), np.zeros((3, 2))  # moments made with the parameter
    for step in range(1, 4):
        g = rng.standard_normal((3, 2))
        w.grad = g.copy()
        store.adam_step(lr=0.1)
        m = m * 0.9 + (1.0 - 0.9) * g
        v = v * 0.999 + (1.0 - 0.999) * (g * g)
        x -= 0.1 * (m / (1.0 - 0.9**step)) / (np.sqrt(v / (1.0 - 0.999**step)) + 1e-8)
        assert w.value.tobytes() == x.tobytes()
    assert [(mo.tobytes(), vo.tobytes()) for mo, vo in store._moments] == [(m.tobytes(), v.tobytes())]


@settings(max_examples=40)
@example((2, 3), [True, False, False, True], 0)  # steps without a gradient after one: m is not zero
@example((1, 1), [False, True, False], 1)  # the first step has no gradient
@given(st.tuples(st.integers(1, 4), st.integers(1, 4)), st.lists(st.booleans(), min_size=1, max_size=8),
       st.integers(0, 2**32 - 1))
def test_adam_reads_a_missing_gradient_as_a_zero_one(shape, has_grad, seed):
    rng = np.random.default_rng(seed)
    start = rng.standard_normal(shape)
    lazy, eager = ParameterStore(), ParameterStore()
    w_lazy, w_eager = lazy.add("w", start.copy()), eager.add("w", start.copy())
    for given_grad in has_grad:
        g = np.zeros(shape)
        if given_grad:
            g = rng.standard_normal(shape)
            g[rng.random(shape) < 0.25] = -0.0  # signed zeros among the entries
            w_lazy.grad = g.copy()
        assert (w_lazy.grad is None) != given_grad
        w_eager.grad = g
        lazy.adam_step(lr=0.1)
        eager.adam_step(lr=0.1)
        assert w_lazy.value.tobytes() == w_eager.value.tobytes()
        (m_lazy, v_lazy), (m_eager, v_eager) = lazy._moments + eager._moments
        assert m_lazy.tobytes() == m_eager.tobytes() and v_lazy.tobytes() == v_eager.tobytes()


def tiny_models_of_every_kind():
    """Tiny word+pos, +char and +pretrained models."""
    model, corpus = tiny_model(seed=4)
    forms = sorted({t.form for sentence in corpus for t in sentence})
    table = parse_pretrained("".join(f"{w} 0.1 -0.2\n" for w in forms[:3]))
    pretrained = ParserModel(Config(use_pretrained=True, **TINY), build_vocab(corpus), table)
    return [model, tiny_model(seed=4, use_char=True)[0], pretrained]


def test_entries_tile_the_trainable_tensors():
    model, corpus = tiny_model(seed=4)
    default = ParserModel(Config(), build_vocab(corpus)).store  # default dims, word+pos
    assert (len(default.trainable), len(list(default.items()))) == (36, 90)
    for model in tiny_models_of_every_kind():
        store = model.store
        # the tensors the tape reads are the trainable ones
        cells = [*model.sent_net.fwd, *model.sent_net.bwd, *model.tree]
        if model.char_net is not None:
            cells += [*model.char_net.fwd, *model.char_net.bwd]
        read = [t for cell in cells for t in cell.stacked] + [model.mlp_u.w0, model.mlp_r.w0]
        assert all(any(t is p for p in store.trainable) for t in read)
        entries = [entry for _, entry in store.items()]
        owners = [[p for p in store.trainable if np.shares_memory(entry.value, p.value)] for entry in entries]
        assert all(len(found) == 1 for found in owners)
        assert {id(found[0]) for found in owners} == {id(p) for p in store.trainable}
        # so Adam steps exactly the numbers that to_bytes saves
        assert sum(e.value.size for e in entries) == sum(p.value.size for p in store.trainable)
        for p in store.trainable:
            p.value[...] = 0.0
        for entry in entries:
            entry.value += 1.0
        assert all((p.value == 1.0).all() for p in store.trainable)  # each number is in one entry


def test_built_and_loaded_models_hold_no_adam_moments(tmp_path):
    model, corpus = tiny_model(seed=2)
    model.save(str(tmp_path / "model.bin"))
    for fresh in (model, ParserModel.load(str(tmp_path / "model.bin"))):
        assert not fresh.store._moments
        assert all(p.grad is None for p in fresh.store.trainable)  # nor any gradient
    trainer = Trainer(model, error_batch=1)
    trainer.train_sentence(corpus[0])
    trainer.flush()
    assert trainer.updates and len(model.store._moments) == len(model.store.trainable)
    assert all(p.grad is None for p in model.store.trainable)  # an update drops every gradient


def test_adam_minimizes_a_quadratic():
    store = ParameterStore()
    x = store.add("x", np.array([[1.0]]))
    for _ in range(100):
        t = Tape()
        t.backward(t.sum_all(t.pointwise_mul(x, x)))
        store.adam_step(lr=0.1)
    assert abs(x.value[0, 0]) < 0.05
    assert x.value[0, 0] == pytest.approx(reference_adam_scalar(1.0, 0.1, 100), abs=1e-12)


# ---- serialization ----


def test_empty_store_round_trips():
    loaded = ParameterStore()
    loaded.load_bytes(ParameterStore().to_bytes())
    assert list(loaded.items()) == []


def test_round_trip_is_bit_exact():
    rng = np.random.default_rng(3)
    store = ParameterStore()
    store.add("alpha", rng.standard_normal((4, 7)))
    store.add("beta/gamma", rng.standard_normal((1, 1)) * 1e-300)
    data = store.to_bytes()
    loaded = ParameterStore()
    for name, p in store.items():
        loaded.add(name, np.zeros_like(p.value))
    loaded.load_bytes(data)
    for name, p in store.items():
        assert loaded[name].value.tobytes() == p.value.tobytes()
    assert loaded.to_bytes() == data


def test_corrupted_magic_is_rejected():
    store = ParameterStore()
    store.add("w", np.ones((2, 2)))
    data = bytearray(store.to_bytes())
    data[0] = ord("X")
    with pytest.raises(SerializationError, match="magic"):
        store.load_bytes(bytes(data))


def test_truncated_file_is_rejected():
    store = ParameterStore()
    store.add("w", np.ones((2, 2)))
    data = store.to_bytes()
    with pytest.raises(SerializationError, match="truncated"):
        store.load_bytes(data[:-5])


def test_strict_load_rejects_unknown_and_missing_names():
    donor = ParameterStore()
    donor.add("w", np.ones((2, 2)))
    donor.add("extra", np.ones((1, 1)))
    receiver = ParameterStore()
    receiver.add("w", np.zeros((2, 2)))
    with pytest.raises(SerializationError, match="unknown parameter"):
        receiver.load_bytes(donor.to_bytes())
    sparse = ParameterStore()
    sparse.add("w", np.ones((2, 2)))
    both = ParameterStore()
    both.add("w", np.zeros((2, 2)))
    both.add("more", np.zeros((1, 1)))
    with pytest.raises(SerializationError, match="missing"):
        both.load_bytes(sparse.to_bytes())


def test_strict_load_rejects_a_parameter_listed_twice():
    store = ParameterStore()
    store.add("a", np.ones((2, 1)))
    store.add("b", np.ones((1, 1)))
    again = ParameterStore()
    again.add("a", np.full((2, 1), 7.0))
    data = store.to_bytes()
    three = data[:8] + struct.pack("<I", 3) + data[12:] + again.to_bytes()[12:]
    with pytest.raises(SerializationError, match="'a'"):
        store.load_bytes(three)


def test_strict_load_checks_shapes():
    donor = ParameterStore()
    donor.add("w", np.ones((2, 3)))
    receiver = ParameterStore()
    receiver.add("w", np.zeros((3, 2)))
    with pytest.raises(SerializationError, match="shape"):
        receiver.load_bytes(donor.to_bytes())


def test_duplicate_parameter_names_rejected():
    store = ParameterStore()
    store.add("w", np.ones((1, 1)))
    with pytest.raises(ValueError, match="duplicate"):
        store.add("w", np.ones((1, 1)))
