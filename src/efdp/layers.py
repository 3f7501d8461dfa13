"""LSTM cells, stacked BiLSTMs, and MLPs on the autodiff core.

Parameters are registered under ``layer_name/gate/param`` names so a model
file maps cleanly back onto the architecture that produced it.
"""

import numpy as np

from .autodiff import ShapeError, Tensor

GATES = ("input", "forget", "output", "cand")


def glorot(rng, out: np.ndarray) -> np.ndarray:
    """Fills the (rows, cols) array ``out`` from U(-b, b), b = sqrt(6 / (rows + cols))."""
    bound = np.sqrt(6.0 / sum(out.shape))
    rng.random(out=out)  # the same draws and rounding as rng.uniform(-bound, bound)
    out *= 2.0 * bound
    out -= bound
    return out


def embedding_init(rng, rows: int, cols: int) -> np.ndarray:
    return rng.uniform(-0.05, 0.05, size=(rows, cols))


class LstmCell:
    """Single LSTM cell: logistic input/forget/output gates, tanh candidate.

    The gates are stacked in GATES order into ``stacked`` = (W_x, W_h, b) with
    4H rows each, so a step is two matmuls, two adds and one ``lstm_gates``.
    The store's per-gate parameters ``name/gate/W_x|W_h|b`` are row blocks of
    those matrices and of their gradient buffers; every write to a parameter
    or gradient is in place, so the two stay one set of numbers.
    """

    def __init__(self, store, name: str, input_size: int, hidden_size: int, rng):
        self.name = name
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.stacked = tuple(Tensor(np.zeros((4 * hidden_size, n))) for n in (input_size, hidden_size, 1))
        for full in self.stacked:
            full.grad = np.zeros_like(full.value)
        self.w_x, self.w_h, self.b = {}, {}, {}
        for k, gate in enumerate(GATES):
            rows = slice(k * hidden_size, (k + 1) * hidden_size)
            glorot(rng, self.stacked[0].value[rows])
            glorot(rng, self.stacked[1].value[rows])
            for by_gate, param, full in zip((self.w_x, self.w_h, self.b), ("W_x", "W_h", "b"), self.stacked):
                by_gate[gate] = store.add(f"{name}/{gate}/{param}", full.value[rows])
                by_gate[gate].grad = full.grad[rows]

    def initial_state(self):
        zeros = np.zeros((self.hidden_size, 1))
        return Tensor(zeros.copy()), Tensor(zeros.copy())

    def step(self, tape, h_prev: Tensor, c_prev: Tensor, x: Tensor):
        if x.value.shape != (self.input_size, 1):
            raise ShapeError(
                f"{self.name}: input shape {x.value.shape}, expected ({self.input_size}, 1)"
            )
        w_x, w_h, b = self.stacked
        z = tape.add(tape.add(tape.matmul(w_x, x), tape.matmul(w_h, h_prev)), b)
        return tape.lstm_gates(z, c_prev)


class BiLstm:
    """Parameter bundle for a stacked BiLSTM; layer k>0 takes 2*hidden inputs."""

    def __init__(self, store, name: str, input_size: int, hidden_size: int, layers: int, rng):
        self.name = name
        self.hidden_size = hidden_size
        self.fwd = []
        self.bwd = []
        for k in range(layers):
            size = input_size if k == 0 else 2 * hidden_size
            self.fwd.append(LstmCell(store, f"{name}/fwd{k}", size, hidden_size, rng))
            self.bwd.append(LstmCell(store, f"{name}/bwd{k}", size, hidden_size, rng))

    def run(self, tape, inputs):
        """Returns (per-position outputs, final forward h, final backward h).

        Layer k consumes layer k-1 outputs; output[i] is the concatenation of the
        forward state after i+1 steps with the backward state after n-i steps.
        """
        if not inputs:
            raise ValueError("bilstm over an empty sequence")

        def states(cell, xs):
            h, c = cell.initial_state()
            hs = []
            for x in xs:
                h, c = cell.step(tape, h, c, x)
                hs.append(h)
            return hs

        seq = list(inputs)
        for fwd, bwd in zip(self.fwd, self.bwd):
            f_hs = states(fwd, seq)
            b_hs = states(bwd, seq[::-1])[::-1]
            seq = [tape.concat(f, b) for f, b in zip(f_hs, b_hs)]
        # final backward state is the one aligned with the first position
        return seq, f_hs[-1], b_hs[0]


class Mlp:
    """tanh hidden layers with a linear output layer of fixed size."""

    def __init__(self, store, name: str, sizes, rng):
        if len(sizes) < 2:
            raise ValueError("an MLP needs at least input and output sizes")
        self.name = name
        self.sizes = tuple(sizes)
        self.layers = []
        for k, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
            w = store.add(f"{name}/layer{k}/W", glorot(rng, np.empty((n_out, n_in))))
            b = store.add(f"{name}/layer{k}/b", np.zeros((n_out, 1)))
            self.layers.append((w, b))

    def apply(self, tape, x: Tensor) -> Tensor:
        if x.value.shape != (self.sizes[0], 1):
            raise ShapeError(
                f"{self.name}: input shape {x.value.shape}, expected ({self.sizes[0]}, 1)"
            )
        out = x
        last = len(self.layers) - 1
        for k, (w, b) in enumerate(self.layers):
            out = tape.add(tape.matmul(w, out), b)
            if k != last:
                out = tape.tanh(out)
        return out
