"""LSTM cells, stacked BiLSTMs, and MLPs on the autodiff core.

Parameters are registered under ``layer_name/gate/param`` names so a model
file maps cleanly back onto the architecture that produced it.
"""

import numpy as np

from .autodiff import ShapeError, Tensor

GATES = ("input", "forget", "output", "cand")


def glorot(rng, rows: int, cols: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


def embedding_init(rng, rows: int, cols: int) -> np.ndarray:
    return rng.uniform(-0.05, 0.05, size=(rows, cols))


class LstmCell:
    """Single LSTM cell: logistic input/forget/output gates, tanh candidate."""

    def __init__(self, store, name: str, input_size: int, hidden_size: int, rng):
        self.name = name
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_x = {}
        self.w_h = {}
        self.b = {}
        for gate in GATES:
            self.w_x[gate] = store.add(f"{name}/{gate}/W_x", glorot(rng, hidden_size, input_size))
            self.w_h[gate] = store.add(f"{name}/{gate}/W_h", glorot(rng, hidden_size, hidden_size))
            self.b[gate] = store.add(f"{name}/{gate}/b", np.zeros((hidden_size, 1)))

    def initial_state(self):
        zeros = np.zeros((self.hidden_size, 1))
        return Tensor(zeros.copy()), Tensor(zeros.copy())

    def step(self, tape, h_prev: Tensor, c_prev: Tensor, x: Tensor):
        if x.value.shape != (self.input_size, 1):
            raise ShapeError(
                f"{self.name}: input shape {x.value.shape}, expected ({self.input_size}, 1)"
            )

        def gate(name):
            pre = tape.add(
                tape.add(tape.matmul(self.w_x[name], x), tape.matmul(self.w_h[name], h_prev)),
                self.b[name],
            )
            return tape.tanh(pre) if name == "cand" else tape.logistic(pre)

        i = gate("input")
        f = gate("forget")
        o = gate("output")
        g = gate("cand")
        c = tape.add(tape.pointwise_mul(f, c_prev), tape.pointwise_mul(i, g))
        h = tape.pointwise_mul(o, tape.tanh(c))
        return h, c


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
            w = store.add(f"{name}/layer{k}/W", glorot(rng, n_out, n_in))
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
