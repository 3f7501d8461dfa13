"""LSTM cells, stacked BiLSTMs, and MLPs on the autodiff core.

Parameters are registered under ``layer_name/gate/param`` names so a model
file maps cleanly back onto the architecture that produced it.
"""

import numpy as np

from .autodiff import ShapeError, Tensor

GATES = ("input", "forget", "output", "cand")


def blank(rng, rows: int, cols: int) -> np.ndarray:
    """A (rows, cols) parameter of zeros for ``uniform`` to draw into; without ``rng``
    a float32 array left unfilled, for a model file's values."""
    return np.empty((rows, cols), np.float32) if rng is None else np.zeros((rows, cols))


def uniform(rng, out: np.ndarray, bound: float = None) -> np.ndarray:
    """Fills ``out`` from U(-bound, bound), by default Glorot's bound sqrt(6 / (rows + cols)); no rng draws nothing."""
    if rng is not None:
        bound = np.sqrt(6.0 / sum(out.shape)) if bound is None else bound
        rng.random(out=out)  # the same draws and rounding as rng.uniform(-bound, bound)
        out *= 2.0 * bound
        out -= bound
    return out


class LstmCell:
    """Single LSTM cell: logistic input/forget/output gates, tanh candidate.

    The gates are stacked in GATES order into ``stacked`` = (W_x, W_h, b) with
    4H rows each. ``project`` gives W_x x + b for any number of inputs at
    once; a ``step`` runs ``Tape.lstm`` one step from them.
    The three matrices are the store's trainable tensors; its per-gate entries
    ``name/gate/W_x|W_h|b`` are row blocks of their values.
    """

    def __init__(self, store, name: str, input_size: int, hidden_size: int, rng):
        self.name = name
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.stacked = tuple(Tensor(blank(rng, 4 * hidden_size, n)) for n in (input_size, hidden_size, 1))
        for k, gate in enumerate(GATES):
            rows = slice(k * hidden_size, (k + 1) * hidden_size)
            uniform(rng, self.stacked[0].value[rows])
            uniform(rng, self.stacked[1].value[rows])
            for param, full in zip(("W_x", "W_h", "b"), self.stacked):
                store.add(f"{name}/{gate}/{param}", full.value[rows], owner=full)

    def project(self, tape, x: Tensor) -> Tensor:
        """W_x x + b for k inputs side by side: x is (input_size, k), the result (4H, k)."""
        if x.value.shape[0] != self.input_size:
            raise ShapeError(f"{self.name}: input shape {x.value.shape}, expected ({self.input_size}, k)")
        w_x, _, b = self.stacked
        return tape.add(tape.matmul(w_x, x), b)

    def step(self, tape, z_x: Tensor, state=None):
        """(h, c) of k cells side by side from their projected inputs z_x (4H, k) and
        their ``state`` (h, c), each (H, k); None is the zero state."""
        return tape.lstm((self.stacked[1],), (z_x,), [z_x.value.shape[1]], state=state)


class BiLstm:
    """Parameter bundle for a stacked BiLSTM; layer k>0 takes 2*hidden inputs."""

    def __init__(self, store, name: str, input_size: int, hidden_size: int, layers: int, rng):
        self.name = name
        self.hidden_size = hidden_size
        self.fwd, self.bwd = [], []
        for k in range(layers):
            size = input_size if k == 0 else 2 * hidden_size
            self.fwd.append(LstmCell(store, f"{name}/fwd{k}", size, hidden_size, rng))
            self.bwd.append(LstmCell(store, f"{name}/bwd{k}", size, hidden_size, rng))

    def run(self, tape, x: Tensor, lengths):
        """Runs m sequences side by side; returns (outputs, final forward h, final backward h).

        Sequence j is lengths[j] consecutive columns of x, after the sequences
        before it. Outputs keep that layout with 2*hidden rows: step t of a
        sequence stacks the forward state after its first t+1 steps over the
        backward state from its last step back to step t. The final states are
        (hidden, m). Layer k reads layer k-1 outputs, both directions in one
        ``Tape.lstm`` over the sequences longest first (a stable sort), so that
        step t runs only those still live.
        """
        if not len(lengths) or min(lengths) < 1:
            raise ValueError("bilstm over an empty sequence")
        lengths = np.asarray(lengths)
        if x.value.shape[1] != lengths.sum():
            raise ShapeError(f"{self.name}: {x.value.shape[1]} input columns for lengths {lengths.tolist()}")
        first = np.cumsum(lengths) - lengths
        order = np.argsort(-lengths, kind="stable")
        t, k = np.nonzero(np.arange(lengths.max())[:, None] < lengths[order])  # step t of the k-th longest, step by step
        j = order[k]
        # the column of x each direction reads at each packed step, which is also where its state goes
        cols = np.stack((first[j] + t, first[j] + lengths[j] - 1 - t))
        seq = x
        for fwd, bwd in zip(self.fwd, self.bwd):
            # one sequence: the forward cells read seq itself, as a gathered, column-major copy rounds W_x's gradient otherwise
            z_f = fwd.project(tape, seq if len(lengths) == 1 else tape.columns(seq, cols[0]))
            zs = (z_f, bwd.project(tape, tape.columns(seq, cols[1])))
            seq, _ = tape.lstm((fwd.stacked[1], bwd.stacked[1]), zs, np.bincount(t), cols)
        last, h = first + lengths - 1, self.hidden_size
        # the backward state after a whole sequence is aligned with its first step
        return seq, tape.columns(seq, last, rows=slice(0, h)), tape.columns(seq, first, rows=slice(h, 2 * h))


class Mlp:
    """One tanh hidden layer and a linear output layer: W1 tanh(W0 x + b0) + b1.

    For an input of ``slots`` equal blocks, the trainable ``w0`` holds W0 as a
    (slots * hidden, block) array whose row o*slots + s is W0[o, block s]: one
    matmul with it gives a block's products for every slot. The store's entry
    ``name/layer0/W`` is the (hidden, input) view of its value.
    """

    def __init__(self, store, name: str, sizes, rng, slots: int):
        if len(sizes) != 3 or sizes[0] % slots:
            raise ValueError(f"an MLP needs sizes (input, hidden, output) and {slots} equal input blocks: {sizes}")
        self.name = name
        self.sizes = n_in, hidden, n_out = tuple(sizes)
        self.w0 = Tensor(uniform(rng, blank(rng, hidden, n_in)).reshape(slots * hidden, -1))
        store.add(f"{name}/layer0/W", self.w0.value.reshape(hidden, n_in), owner=self.w0)
        self.b0 = store.add(f"{name}/layer0/b", blank(rng, hidden, 1))
        self.w1 = store.add(f"{name}/layer1/W", uniform(rng, blank(rng, n_out, hidden)))
        self.b1 = store.add(f"{name}/layer1/b", blank(rng, n_out, 1))

    def apply(self, tape, z: Tensor) -> Tensor:
        """The outputs of k inputs side by side from their first-layer products z = W0 x, (hidden, k)."""
        if z.value.shape[0] != self.sizes[1]:
            raise ShapeError(
                f"{self.name}: first-layer products of shape {z.value.shape}, expected ({self.sizes[1]}, k)"
            )
        return tape.add(tape.matmul(self.w1, tape.tanh(tape.add(z, self.b0))), self.b1)
