import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from efdp.autodiff import ParameterStore, ShapeError, Tape, Tensor
from efdp.layers import GATES, BiLstm, LstmCell, Mlp
from helpers import check_gradients, grad_of

PARAMS = ("W_x", "W_h", "b")  # the per-gate parameters of a cell, named cell/gate/param in its store


def make_cell(input_size=3, hidden_size=4, seed=0, name="cell"):
    store = ParameterStore()
    cell = LstmCell(store, name, input_size, hidden_size, np.random.default_rng(seed))
    return store, cell


def zero_cell(input_size, hidden_size):
    store, cell = make_cell(input_size, hidden_size)
    for _, p in store.items():
        p.value[:] = 0.0
    return store, cell


def test_zero_weights_zero_input_gives_zero_state():
    _, cell = zero_cell(3, 4)
    t = Tape()
    h, c = cell.step(t, cell.project(t, Tensor(np.zeros((3, 1)))))
    assert np.array_equal(h.value, np.zeros((4, 1)))
    assert np.array_equal(c.value, np.zeros((4, 1)))


def test_step_output_dims_fixed_by_hidden_size():
    _, cell = make_cell(5, 3)
    t = Tape()
    h, c = cell.step(t, cell.project(t, Tensor(np.random.default_rng(1).uniform(-9, 9, (5, 1)))))
    assert h.value.shape == (3, 1) and c.value.shape == (3, 1)


def test_step_rejects_wrong_input_size():
    _, cell = make_cell(3, 4)
    t = Tape()
    with pytest.raises(ShapeError, match="cell"):
        cell.project(t, Tensor(np.zeros((5, 1))))
    z = cell.project(t, Tensor(np.zeros((3, 1))))
    with pytest.raises(ShapeError, match="lstm"):
        cell.step(t, z, (Tensor(np.zeros((4, 1))), Tensor(np.zeros((5, 1)))))


def test_step_from_no_state_equals_step_from_the_zero_state():
    store, cell = make_cell(3, 4, seed=5)
    x = np.random.default_rng(6).uniform(-1, 1, (3, 2))

    def run(state):
        store.zero_grads()
        t = Tape()
        h, c = cell.step(t, cell.project(t, Tensor(x)), state)
        t.backward(t.add(t.sum_all(h), t.sum_all(c)))
        return [h.value, c.value] + [grad_of(p) for p in store.trainable]

    zero = (Tensor(np.zeros((4, 2))), Tensor(np.zeros((4, 2))))
    for got, want in zip(run(None), run(zero)):
        assert np.array_equal(got, want)


def test_gradient_through_three_chained_steps():
    store, cell = make_cell(3, 4, seed=7)
    rng = np.random.default_rng(8)
    xs = [Tensor(rng.uniform(-1, 1, (3, 1))) for _ in range(3)]

    def build():
        t = Tape()
        state = None
        for x in xs:
            state = cell.step(t, cell.project(t, x), state)
        return t, t.sum_all(state[0])

    check_gradients(build, store)


def reference_step(t, store, cell, h_prev, c_prev, x):
    """The per-gate composition of generic tape ops that the fused step replaces."""

    def gate(name):
        w_x, w_h, b = (store[f"{cell.name}/{name}/{param}"] for param in PARAMS)
        pre = t.add(t.add(t.matmul(w_x, x), t.matmul(w_h, h_prev)), b)
        return t.tanh(pre) if name == "cand" else t.logistic(pre)

    i, f, o, g = (gate(name) for name in GATES)
    c = t.add(t.pointwise_mul(f, c_prev), t.pointwise_mul(i, g))
    return t.pointwise_mul(o, t.tanh(c)), c


def assert_stacked_blocks_are_the_gate_parameters(store, cell):
    for full, param in zip(cell.stacked, PARAMS):
        by_gate = [store[f"{cell.name}/{gate}/{param}"] for gate in GATES]
        assert np.array_equal(full.value, np.vstack([p.value for p in by_gate]))


def gate_grads(cell):
    """Each per-gate parameter's gradient, read as its rows of the stacked tensor's gradient."""
    rows = lambda k: slice(k * cell.hidden_size, (k + 1) * cell.hidden_size)
    return {f"{cell.name}/{gate}/{param}": grad_of(full)[rows(k)]
            for k, gate in enumerate(GATES) for param, full in zip(PARAMS, cell.stacked)}


@pytest.mark.parametrize("input_size, hidden_size, steps, seed", [(3, 4, 1, 0), (5, 2, 3, 1), (2, 6, 4, 2)])
def test_fused_step_matches_per_gate_reference(input_size, hidden_size, steps, seed):
    store, cell = make_cell(input_size, hidden_size, seed=seed)
    rng = np.random.default_rng(100 + seed)
    for _, p in store.items():
        p.value[:] = rng.uniform(-1.5, 1.5, p.value.shape)
    xs = rng.uniform(-1, 1, (steps, input_size, 1))
    h0, c0 = rng.uniform(-1, 1, (2, hidden_size, 1))
    weights = Tensor(rng.uniform(-1, 1, ((steps + 1) * hidden_size, 1)))

    def run(step, read_grads):
        store.zero_grads()
        inputs = [Tensor(x) for x in xs]
        h, c = start = Tensor(h0), Tensor(c0)
        t = Tape()
        hs = []
        for x in inputs:
            h, c = step(t, h, c, x)
            hs.append(h)
        t.backward(t.sum_all(t.pointwise_mul(weights, t.concat(*hs, c))))
        values = [h.value, c.value] + [v.grad for v in (*start, *inputs)]
        return values, read_grads()

    def step(t, h, c, x):
        return cell.step(t, cell.project(t, x), (h, c))

    values, grads = run(step, lambda: gate_grads(cell))
    assert_stacked_blocks_are_the_gate_parameters(store, cell)
    # the reference reads the per-gate entries on its tape, so their own gradients are its result
    ref_values, ref_grads = run(lambda t, h, c, x: reference_step(t, store, cell, h, c, x),
                                lambda: {name: p.grad.copy() for name, p in store.items()})
    for got, want in zip(values, ref_values):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    for name, grad in grads.items():
        np.testing.assert_allclose(grad, ref_grads[name], rtol=1e-12, atol=0, err_msg=name)

    # the stacked matrices are the store's trainable tensors: Adam and a load write them
    assert all(any(full is p for p in store.trainable) for full in cell.stacked)
    store.adam_step(lr=0.1)
    assert_stacked_blocks_are_the_gate_parameters(store, cell)
    other, _ = make_cell(input_size, hidden_size, seed=seed + 50)
    store.load_bytes(other.to_bytes())
    assert_stacked_blocks_are_the_gate_parameters(store, cell)
    assert np.array_equal(cell.stacked[1].value[-hidden_size:], other["cell/cand/W_h"].value)
    run(step, dict)
    assert all(full.grad.any() for full in cell.stacked)
    store.zero_grads()
    assert_stacked_blocks_are_the_gate_parameters(store, cell)
    assert all(full.grad is None for full in cell.stacked)


def test_saturated_gates_freeze_the_cell_state():
    store, cell = make_cell(2, 3, seed=1)
    store["cell/forget/b"].value[:] = 20.0   # forget gate ~ 1
    store["cell/input/b"].value[:] = -20.0   # input gate ~ 0
    c0 = np.random.default_rng(2).uniform(-1, 1, (3, 1))
    t = Tape()
    _, c1 = cell.step(t, cell.project(t, Tensor(np.ones((2, 1)))), (Tensor(np.zeros((3, 1))), Tensor(c0)))
    assert np.abs(c1.value - c0).max() < 1e-6


def columns_of(vectors):
    """The (d, n) tensor whose columns are the given (d, 1) arrays."""
    return Tensor(np.hstack(vectors))


def test_bilstm_single_input_concatenates_one_step_each_way():
    store = ParameterStore()
    rng = np.random.default_rng(3)
    net = BiLstm(store, "bi", 3, 4, 1, rng)
    x = Tensor(rng.uniform(-1, 1, (3, 1)))
    t = Tape()
    outputs, f_fin, b_fin = net.run(t, x, [1])
    assert outputs.value.shape == (8, 1)
    t2 = Tape()
    hf, _ = net.fwd[0].step(t2, net.fwd[0].project(t2, x))
    hb, _ = net.bwd[0].step(t2, net.bwd[0].project(t2, x))
    assert np.array_equal(outputs.value, np.vstack([hf.value, hb.value]))
    assert np.array_equal(f_fin.value, hf.value)
    assert np.array_equal(b_fin.value, hb.value)


def test_bilstm_run_is_a_chain_of_project_and_step_each_way():
    # one sequence (m = 1) keeps the bits of a chain of single steps, in values and in every gradient;
    # at the sentence BiLSTM's default sizes, where a product's operand layout can change its rounding
    store = ParameterStore()
    rng = np.random.default_rng(7)
    n = 6
    net = BiLstm(store, "bi", 150, 125, 2, rng)
    x = rng.uniform(-1, 1, (150, n))
    out_w, fin_w = Tensor(rng.uniform(-1, 1, (250, n))), Tensor(rng.uniform(-1, 1, (250, 1)))

    def backprop(encode):
        store.zero_grads()
        t, inputs = Tape(), Tensor(x)
        outputs, f_fin, b_fin = encode(t, inputs)
        t.backward(t.add(t.sum_all(t.pointwise_mul(out_w, outputs)),
                         t.sum_all(t.pointwise_mul(fin_w, t.concat(f_fin, b_fin)))))
        return [outputs.value, f_fin.value, b_fin.value, inputs.grad] + [grad_of(p) for p in store.trainable]

    def chain(t, seq):
        for cells in zip(net.fwd, net.bwd):
            states = []
            for cell, cell_input in zip(cells, (seq, t.columns(seq, range(n - 1, -1, -1)))):
                z = cell.project(t, cell_input)  # one projection of the whole sequence, as ``run`` makes
                state, hs = None, []
                for k in range(n):
                    state = cell.step(t, t.columns(z, slice(k, k + 1)), state)
                    hs.append(state[0])
                states.append(hs)
            fwd, bwd = states
            seq = t.concat(t.concat(*fwd, axis=1), t.concat(*bwd[::-1], axis=1))
        return seq, fwd[-1], bwd[-1]

    got = backprop(lambda t, inputs: net.run(t, inputs, [n]))
    want = backprop(chain)
    assert all(w.any() for w in want)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def copy_weights(store, src: LstmCell, dst: LstmCell):
    for gate in GATES:
        for param in PARAMS:
            store[f"{dst.name}/{gate}/{param}"].value[:] = store[f"{src.name}/{gate}/{param}"].value


def test_reversed_input_swaps_directions_under_shared_weights():
    store = ParameterStore()
    rng = np.random.default_rng(4)
    net = BiLstm(store, "bi", 3, 4, 1, rng)
    copy_weights(store, net.fwd[0], net.bwd[0])
    xs = columns_of([rng.uniform(-1, 1, (3, 1)) for _ in range(5)])
    fwd_out, _, _ = net.run(Tape(), xs, [5])
    rev_out, _, _ = net.run(Tape(), Tensor(xs.value[:, ::-1]), [5])
    for i in range(5):
        a = fwd_out.value[:, i]
        b = rev_out.value[:, 4 - i]
        assert np.allclose(a[:4], b[4:]) and np.allclose(a[4:], b[:4])


def test_two_layer_hundred_dim_outputs_are_two_hundred_wide():
    store = ParameterStore()
    net = BiLstm(store, "bi", 7, 100, 2, np.random.default_rng(5))
    xs = columns_of([np.random.default_rng(6).uniform(-1, 1, (7, 1)) for _ in range(3)])
    outputs, f_fin, b_fin = net.run(Tape(), xs, [3])
    assert outputs.value.shape == (200, 3)
    assert f_fin.value.shape == (100, 1) and b_fin.value.shape == (100, 1)


def test_bilstm_rejects_empty_input():
    store = ParameterStore()
    net = BiLstm(store, "bi", 3, 4, 1, np.random.default_rng(0))
    with pytest.raises(ValueError, match="empty"):
        net.run(Tape(), Tensor(np.zeros((3, 0))), [])
    with pytest.raises(ValueError, match="empty"):
        net.run(Tape(), Tensor(np.zeros((3, 4))), [2, 0])
    with pytest.raises(ShapeError, match="bi"):
        net.run(Tape(), Tensor(np.zeros((3, 5))), [2, 2])


def test_stacked_bilstm_gradients():
    store = ParameterStore()
    rng = np.random.default_rng(9)
    net = BiLstm(store, "bi", 2, 3, 2, rng)
    xs = columns_of([rng.uniform(-1, 1, (2, 1)) for _ in range(3)])

    def build():
        t = Tape()
        outputs, f_fin, b_fin = net.run(t, xs, [3])
        return t, t.add(t.sum_all(outputs), t.sum_all(t.concat(f_fin, b_fin)))

    check_gradients(build, store)


@settings(max_examples=10)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), st.integers(1, 4))
def test_bilstm_output_length_and_width(input_size, hidden, layers, n):
    store = ParameterStore()
    rng = np.random.default_rng(0)
    net = BiLstm(store, "bi", input_size, hidden, layers, rng)
    xs = columns_of([rng.uniform(-1, 1, (input_size, 1)) for _ in range(n)])
    outputs, _, _ = net.run(Tape(), xs, [n])
    assert outputs.value.shape == (2 * hidden, n)


def assert_close(got, want, **kwargs):
    """Equal within rtol 1e-12; batched products sum in another order, so an
    entry that cancels to near zero is held to 1e-12 of the largest entry."""
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max(), **kwargs)


def run_bilstm_and_backprop(net, store, x, lengths, out_weights, fin_weights):
    """Outputs, final states and every gradient of one weighted-sum loss over a batched run."""
    store.zero_grads()
    x = Tensor(x)
    t = Tape()
    outputs, f_fin, b_fin = net.run(t, x, lengths)
    finals = t.concat(f_fin, b_fin)
    loss = t.add(t.sum_all(t.pointwise_mul(Tensor(out_weights), outputs)),
                 t.sum_all(t.pointwise_mul(Tensor(fin_weights), finals)))
    t.backward(loss)
    return outputs.value, finals.value, x.grad, [grad_of(p) for p in store.trainable]


@settings(max_examples=25, deadline=None)
@example([1], 2, 3, 1, 0)  # m = 1, one step
@example([4], 3, 2, 2, 1)  # m = 1
@example([3, 3, 3], 2, 2, 2, 2)  # equal lengths
@example([1, 5, 1, 2], 3, 3, 2, 3)  # 1-step sequences beside longer ones
@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=4),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 2),
    st.integers(0, 2**16),
)
def test_batched_bilstm_matches_one_sequence_at_a_time(lengths, input_size, hidden, layers, seed):
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    net = BiLstm(store, "bi", input_size, hidden, layers, rng)
    n_all = sum(lengths)
    x = rng.uniform(-1, 1, (input_size, n_all))
    out_w = rng.uniform(-1, 1, (2 * hidden, n_all))
    fin_w = rng.uniform(-1, 1, (2 * hidden, len(lengths)))
    outputs, finals, x_grad, grads = run_bilstm_and_backprop(net, store, x, lengths, out_w, fin_w)
    grad_sum = [np.zeros_like(g) for g in grads]
    start = 0
    for j, n in enumerate(lengths):
        cols = slice(start, start + n)  # sequence j's own steps: the n columns after the sequences before it
        start += n
        o, f, xg, g = run_bilstm_and_backprop(net, store, x[:, cols], [n], out_w[:, cols], fin_w[:, j : j + 1])
        assert_close(outputs[:, cols], o)
        assert_close(finals[:, j : j + 1], f)
        assert_close(x_grad[:, cols], xg)
        for total, one in zip(grad_sum, g):
            total += one
    for p, g, total in zip(store.trainable, grads, grad_sum):
        assert_close(g, total, err_msg=repr(p))


# ---- MLP ----
# ``Mlp.apply`` takes the first-layer products z = W0 x of its inputs


def first_layer(t, mlp, x):
    return t.matmul(mlp.w0, x)


def test_mlp_zero_weights_give_zero_output():
    store = ParameterStore()
    mlp = Mlp(store, "m", (4, 3, 2), np.random.default_rng(0), 1)
    for _, p in store.items():
        p.value[:] = 0.0
    t = Tape()
    out = mlp.apply(t, first_layer(t, mlp, Tensor(np.ones((4, 1)))))
    assert np.array_equal(out.value, np.zeros((2, 1)))


def test_mlp_output_sizes_for_both_scorers():
    store = ParameterStore()
    rng = np.random.default_rng(1)
    n_relations = 13
    unlabeled = Mlp(store, "u", (10, 5, 2), rng, 1)
    labeled = Mlp(store, "r", (10, 5, 2 * n_relations), rng, 1)
    x = Tensor(rng.uniform(-1, 1, (10, 1)))
    t = Tape()
    assert unlabeled.apply(t, first_layer(t, unlabeled, x)).value.shape == (2, 1)
    assert labeled.apply(t, first_layer(t, labeled, x)).value.shape == (26, 1)


def test_single_linear_layer_equals_matmul_plus_bias():
    # the head is W1 tanh(W0 x + b0) + b1, each layer a matmul plus its bias
    store = ParameterStore()
    rng = np.random.default_rng(2)
    mlp = Mlp(store, "m", (3, 4, 2), rng, 1)
    for name in ("m/layer0/b", "m/layer1/b"):
        store[name].value[:] = rng.uniform(-1, 1, store[name].value.shape)
    x = rng.uniform(-1, 1, (3, 2))
    w0, b0, w1, b1 = (store[f"m/layer{k}/{p}"].value for k in (0, 1) for p in ("W", "b"))
    t = Tape()
    assert np.array_equal(mlp.apply(t, first_layer(t, mlp, Tensor(x))).value, w1 @ np.tanh(w0 @ x + b0) + b1)


def test_mlp_gradients():
    store = ParameterStore()
    rng = np.random.default_rng(3)
    mlp = Mlp(store, "m", (3, 4, 2), rng, 1)
    x = Tensor(rng.uniform(-1, 1, (3, 1)))

    def build():
        t = Tape()
        return t, t.sum_all(mlp.apply(t, first_layer(t, mlp, x)))

    check_gradients(build, store)


def test_mlp_rejects_wrong_input_width():
    store = ParameterStore()
    mlp = Mlp(store, "m", (3, 4, 2), np.random.default_rng(0), 1)
    with pytest.raises(ShapeError, match="m"):
        mlp.apply(Tape(), Tensor(np.zeros((5, 1))))
    with pytest.raises(ShapeError, match="m"):  # an input in place of its products
        mlp.apply(Tape(), Tensor(np.zeros((3, 1))))
    with pytest.raises(ValueError, match="blocks"):
        Mlp(ParameterStore(), "m", (4, 2, 2), np.random.default_rng(0), slots=3)
    with pytest.raises(ValueError, match="hidden"):  # the head has exactly one hidden layer
        Mlp(ParameterStore(), "m", (3, 2), np.random.default_rng(0), 1)


@pytest.mark.parametrize("slots, block, hidden", [(1, 3, 4), (2, 3, 4), (6, 2, 5)])
def test_slot_view_rows_are_the_first_layer_blocks(slots, block, hidden):
    store = ParameterStore()
    rng = np.random.default_rng(slots)
    mlp = Mlp(store, "m", (slots * block, hidden, 2), rng, slots)
    w0 = store["m/layer0/W"]

    def assert_view():
        for o in range(hidden):
            for s in range(slots):
                cols = slice(s * block, (s + 1) * block)
                assert np.array_equal(mlp.w0.value[o * slots + s], w0.value[o, cols])

    # a window of ``slots`` blocks through the slot layout and window_sum equals W0 x, value and
    # gradients; the slot layout's gradient is read in W0's (hidden, input) layout
    xs = [Tensor(rng.uniform(-1, 1, (block, 1))) for _ in range(slots)]
    weights = Tensor(rng.uniform(-1, 1, (hidden, 1)))
    plain = Tensor(w0.value)

    def loss(first, weight):
        store.zero_grads()
        t = Tape()
        z = first(t)
        t.backward(t.sum_all(t.pointwise_mul(weights, z)))
        return z.value, weight.grad.reshape(hidden, -1).copy()

    got = loss(lambda t: t.window_sum([t.matmul(mlp.w0, x) for x in xs], slots), mlp.w0)
    want = loss(lambda t: t.matmul(plain, t.concat(*xs)), plain)
    np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=1e-15)
    assert got[1].any()
    # the slot layout is the trainable tensor and W0 the view of it that the file holds: every
    # write to either shows in the other
    assert any(mlp.w0 is p for p in store.trainable) and not any(w0 is p for p in store.trainable)
    loss(lambda t: t.window_sum([t.matmul(mlp.w0, x) for x in xs], slots), mlp.w0)
    assert_view()
    store.adam_step(lr=0.1)
    assert_view()
    other = ParameterStore()
    Mlp(other, "m", mlp.sizes, rng, slots)
    store.load_bytes(other.to_bytes())
    assert_view()
    assert np.array_equal(w0.value, other["m/layer0/W"].value)
