"""Dense 2-D tensors with taped reverse-mode differentiation and Adam.

The computation graph is dynamic: a fresh Tape is built per sentence (or per
update window), ops on a recording tape append (output, backward-closure)
records in execution order, and backward() replays them once in reverse. A
Tape(record=False) runs the same ops and keeps nothing, for inference, where
no gradient is taken. Values are float32 in a model being trained, as
copies of float64 master values that Adam steps, and in a model loaded to
parse; they are float64 in a model as built, which the gradient checks use.
An op's output has its inputs' dtype. Vectors are column-shaped
(n, 1), and a batch of k vectors is one (n, k) tensor. Tensors produced on
an older tape may be consumed by a newer one, in which case they act as
constants.
"""

import itertools
import math
import struct

import numpy as np

from .errors import DataError

MAGIC = b"EFDP"
FORMAT_VERSION = 1
ADAM_CHUNK = 1 << 14  # entries per chunk of adam_step, which bounds its two scratch buffers


class ShapeError(ValueError):
    pass


class SerializationError(DataError):
    pass


class Tensor:
    __slots__ = ("value", "grad")

    def __init__(self, value):
        # float32 stays float32 (a model loaded to parse or being trained), anything else becomes float64
        v = np.asarray(value, np.float32 if getattr(value, "dtype", None) == np.float32 else np.float64)
        if v.ndim == 1:
            v = v.reshape(-1, 1)
        if v.ndim != 2:
            raise ShapeError(f"tensors are 2-D, got shape {v.shape}")
        self.value = v
        self.grad = None

    def item(self) -> float:
        if self.value.size != 1:
            raise ShapeError(f"item() on shape {self.value.shape}")
        return float(self.value[0, 0])

    def __repr__(self):
        return f"Tensor{self.value.shape}"


def _result(value: np.ndarray) -> Tensor:
    """An op's output: ``value`` is already a 2-D array of its inputs' dtype, so Tensor()'s checks are skipped."""
    t = object.__new__(Tensor)
    t.value = value
    t.grad = None
    return t


def _accumulate(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    if t.grad is None:  # the first write makes it, from a copy of g unless g is ``fresh``: held by nothing else
        t.grad = g if fresh else g.copy()  # g may be another tensor's gradient or a view of one
    else:
        t.grad += g


def _logistic(v: np.ndarray, out=None) -> np.ndarray:
    # 1/(1+e) for v >= 0 and e/(1+e) below, e = exp(-|v|): exp never overflows
    e = np.abs(v)
    np.negative(e, out=e)
    np.exp(e, out=e)
    top = (v >= 0).astype(e.dtype)  # 1 or 0, then e where v < 0: max(0, e) is e, max(1, e) is 1 as e <= 1
    np.maximum(top, e, out=top)
    e += 1.0
    return np.divide(top, e, out=out)


def _check_finite(op: str, value: np.ndarray) -> None:
    """One sum decides in the common case: a finite sum proves every entry finite.
    A sum that is not finite, as finite entries also give when it overflows
    (numpy then warns), falls back to the test of each entry."""
    if not math.isfinite(np.add.reduce(value, axis=None)) and not np.isfinite(value).all():
        raise FloatingPointError(f"{op} produced non-finite values")


class Tape:
    """Ordered record of executed ops; backward() visits them in reverse.

    With ``record=False`` the ops compute the same values and keep no record,
    and backward() is an error.

    backward() adds the terms g @ x.T of a matmul's left operand as one product,
    before that operand's own record runs or, for a leaf, when the pass ends.
    """

    def __init__(self, record: bool = True):
        self._records = [] if record else None
        self._weight_terms = {}  # id(a) -> (a, [g], [x]) of the matmuls a @ x seen in backward
        self._spent = False

    def __len__(self):
        return len(self._records or ())

    def _push(self, out: Tensor, backward) -> Tensor:
        if self._records is not None:
            self._records.append((out, backward))
        return out

    # ---- forward ops ----

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.value.shape[1] != b.value.shape[0]:
            raise ShapeError(f"matmul: {a.value.shape} @ {b.value.shape}")
        out = _result(a.value @ b.value)
        _check_finite("matmul", out.value)
        terms = self._weight_terms  # not self: a closure holding the tape would make a reference cycle

        def backward(g):
            _, gs, xs = terms.setdefault(id(a), (a, [], []))
            gs.append(g)
            xs.append(b.value)
            _accumulate(b, a.value.T @ g, fresh=True)

        return self._push(out, backward)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        """a + b; a one-column b is a bias added to each of a's columns."""
        if a.value.shape != b.value.shape and b.value.shape != (a.value.shape[0], 1):
            raise ShapeError(f"add: {a.value.shape} vs {b.value.shape}")
        out = _result(a.value + b.value)
        _check_finite("add", out.value)
        broadcast = a.value.shape != b.value.shape

        def backward(g):
            _accumulate(a, g)
            _accumulate(b, g.sum(axis=1, keepdims=True) if broadcast else g)

        return self._push(out, backward)

    def sub(self, a: Tensor, b: Tensor) -> Tensor:
        if a.value.shape != b.value.shape:
            raise ShapeError(f"sub: {a.value.shape} vs {b.value.shape}")
        out = _result(a.value - b.value)
        _check_finite("sub", out.value)

        def backward(g):
            _accumulate(a, g)
            _accumulate(b, -g, fresh=True)

        return self._push(out, backward)

    def pointwise_mul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.value.shape != b.value.shape:
            raise ShapeError(f"pointwise_mul: {a.value.shape} vs {b.value.shape}")
        out = _result(a.value * b.value)
        _check_finite("pointwise_mul", out.value)

        def backward(g):
            _accumulate(a, g * b.value, fresh=True)
            _accumulate(b, g * a.value, fresh=True)

        return self._push(out, backward)

    def tanh(self, x: Tensor) -> Tensor:
        """No finite check: tanh of a finite value is in [-1, 1]."""
        out = _result(np.tanh(x.value))

        def backward(g):
            _accumulate(x, g * (1.0 - out.value * out.value), fresh=True)

        return self._push(out, backward)

    def logistic(self, x: Tensor) -> Tensor:
        out = _result(_logistic(x.value))
        _check_finite("logistic", out.value)

        def backward(g):
            _accumulate(x, g * out.value * (1.0 - out.value), fresh=True)

        return self._push(out, backward)

    def concat(self, *xs: Tensor, axis: int = 0) -> Tensor:
        """Joins blocks top to bottom, or left to right with ``axis=1``; their other
        dimension must agree. A block listed twice sums its gradients.

        No finite check: it copies values it was given.
        """
        try:
            out = _result(np.concatenate([x.value for x in xs], axis=axis))
        except ValueError:  # also no blocks, or an axis that is not 0 or 1
            raise ShapeError(f"concat along axis {axis} of shapes {[x.value.shape for x in xs]}") from None

        def backward(g):
            offset = 0
            for x in xs:
                end = offset + x.value.shape[axis]
                _accumulate(x, g[offset:end] if axis == 0 else g[:, offset:end])
                offset = end

        return self._push(out, backward)

    def pick_row(self, x: Tensor, rows) -> Tensor:
        """Row ``rows`` of x as a column, or for a sequence of row ids one column each.

        No finite check: it copies values it was given.
        """
        ids = np.atleast_1d(np.asarray(rows, dtype=np.intp))
        if ids.ndim != 1 or not ids.size or not ((0 <= ids) & (ids < x.value.shape[0])).all():
            raise ShapeError(f"pick_row: rows {rows} of shape {x.value.shape}")
        out = _result(x.value[ids].T.copy())

        def backward(g):
            if x.grad is None:
                x.grad = np.zeros_like(x.value)
            np.add.at(x.grad, ids, g.T)

        return self._push(out, backward)

    def columns(self, x: Tensor, cols, rows=slice(None)) -> Tensor:
        """x[rows, cols] for a slice of rows and a slice or a sequence of column ids, which may repeat.

        No finite check: it copies values it was given.
        """
        is_slice = isinstance(cols, slice)
        if not is_slice:
            cols = np.asarray(cols, dtype=np.intp)
            if cols.ndim != 1 or not ((0 <= cols) & (cols < x.value.shape[1])).all():
                raise ShapeError(f"columns: {cols} of shape {x.value.shape}")
        out = _result(x.value[rows, cols])
        if not out.value.size:
            raise ShapeError(f"columns: rows {rows}, columns {cols} of shape {x.value.shape} select none")

        def backward(g):
            if x.grad is None:
                x.grad = np.zeros_like(x.value)
            if is_slice:
                x.grad[rows, cols] += g
            else:
                np.add.at(x.grad[rows].T, cols, g.T)  # a repeated column sums its gradients

        return self._push(out, backward)

    def window_sum(self, xs, width: int) -> Tensor:
        """Sums of ``width`` consecutive columns, one row group per slot of the window.

        The blocks xs, joined left to right, form P (width*h, N). Output column
        j of the (h, N-width+1) result is sum_s P[o*width + s, j+s] in row o.
        No finite check: the op that consumes the sum checks it.
        """
        rows = xs[0].value.shape[0] if xs else 0
        bounds = np.cumsum([0] + [x.value.shape[1] for x in xs])
        if any(x.value.shape[0] != rows for x in xs) or rows % width or bounds[-1] < width:
            raise ShapeError(f"window_sum of width {width} over shapes {[x.value.shape for x in xs]}")
        n = bounds[-1] - width + 1
        joined = np.concatenate([x.value for x in xs], axis=1).reshape(rows // width, width, -1)
        out = joined[:, 0, :n].copy()
        for s in range(1, width):
            out += joined[:, s, s : s + n]

        def backward(g):
            grad = np.zeros((rows // width, width, bounds[-1]), g.dtype)
            for s in range(width):
                grad[:, s, s : s + n] = g
            grad = grad.reshape(rows, -1)
            for x, lo, hi in zip(xs, bounds, bounds[1:]):
                _accumulate(x, grad[:, lo:hi])  # a block listed twice sums its gradients

        return self._push(_result(out), backward)

    def sum_all(self, x: Tensor) -> Tensor:
        out = _result(x.value.sum(keepdims=True))
        _check_finite("sum_all", out.value)

        def backward(g):
            _accumulate(x, np.full_like(x.value, g[0, 0]), fresh=True)

        return self._push(out, backward)

    def scale(self, x: Tensor, c: float) -> Tensor:
        out = _result(x.value * c)
        _check_finite("scale", out.value)

        def backward(g):
            _accumulate(x, g * c, fresh=True)

        return self._push(out, backward)

    def lstm(self, w_h, zs, sizes, cols=None, state=None):
        """(h, c) of an LSTM over packed steps in D = len(w_h) directions at once.

        Direction d has recurrent weights w_h[d] (4H, H) and inputs zs[d] = W_x x + b
        (4H, N), gates stacked [i; f; o; g]. Step t takes the next sizes[t] columns,
        which never grow; column k continues column k of the step before, or of
        ``state`` (h, c), each (D*H, sizes[0]), None the zero state. A step runs
        c = f*c_prev + i*g, h = o*tanh(c) (logistic i, f, o; tanh g) on one buffer of
        the D products W_h h + z, checked once (finite, it gives |c| <= |c_prev| + 1,
        |h| <= 1). c is (D*H, N), packed; so is h, or its column cols[d][p] holds packed
        column p of direction d, each row of cols a permutation of range(N). One record
        runs backprop through time when h has a gradient (a loss reaches c only through
        a later step, which reads h too), each step's (dz, h_prev) to the weight terms.
        """
        d_n, hid, sizes, state = len(w_h), w_h[0].value.shape[1], list(sizes), state or ()
        n = sum(sizes)
        cols = cols if cols is None else np.asarray(cols, dtype=np.intp)
        shapes = [t.value.shape for t in (*w_h, *zs, *state)]
        want = [(4 * hid, hid)] * d_n + [(4 * hid, n)] * len(zs) + [(d_n * hid, sizes and sizes[0])] * len(state)
        if shapes != want or not sizes or sizes[-1] < 1 or sizes != sorted(sizes, reverse=True) or (
                cols is not None and (cols.shape != (d_n, n) or (np.sort(cols) != np.arange(n)).any())):
            raise ShapeError(f"lstm: weights, inputs and state of shapes {shapes} for steps {sizes}")
        z = (zs[0].value if len(zs) == 1 else np.concatenate([t.value for t in zs])).reshape(d_n, 4 * hid, n)
        h, c = ((s.value.reshape(d_n, hid, -1) for s in state) if state
                else (None, np.zeros((d_n, hid, sizes[0]), z.dtype)))
        steps, bounds = [], [0, *itertools.accumulate(sizes)]  # steps: (h_prev, c_prev, act, tanh_c, h, c) each
        for m, start in zip(sizes, bounds):
            h_prev, c_prev, pre = h if h is None else h[:, :, :m], c[:, :, :m], z[:, :, start : start + m]
            if h_prev is not None:
                pre, z_t = np.empty_like(pre), pre
                for d, w in enumerate(w_h):
                    np.matmul(w.value, h_prev[d], out=pre[d])
                pre += z_t
                _check_finite("lstm", pre)
            act = np.empty_like(pre)
            _logistic(pre[:, : 3 * hid], out=act[:, : 3 * hid])
            np.tanh(pre[:, 3 * hid :], out=act[:, 3 * hid :])
            i, f, o, g = (act[:, k * hid : (k + 1) * hid] for k in range(4))
            c = f * c_prev + i * g
            tanh_c = np.tanh(c)
            h = o * tanh_c
            steps.append((h_prev, c_prev, act, tanh_c, h, c))
        h_out, c_out = steps[0][4:] if len(steps) == 1 else (np.concatenate([s[k] for s in steps], 2) for k in (4, 5))
        if cols is not None:
            h_out, packed = np.empty_like(h_out), h_out
            h_out[np.arange(d_n)[:, None], :, cols] = packed.transpose(0, 2, 1)
        h_t, c_t = (_result(out.reshape(d_n * hid, n)) for out in (h_out, c_out))
        terms = self._weight_terms

        def backward(g_out):
            g_out = g_out.reshape(d_n, hid, n)
            gh_all = g_out if cols is None else g_out[np.arange(d_n)[:, None], :, cols].transpose(0, 2, 1)
            gc_all = None if c_t.grad is None else c_t.grad.reshape(d_n, hid, n)
            c_t.grad = None  # passed on here, as the tape does for h
            dz_all = np.empty((d_n, 4 * hid, n), z.dtype)
            dh = dc = np.zeros((d_n, hid, 0))  # what step t+1 sends to step t's h and c
            for (h_prev, c_prev, act, tanh_c, _, _), start, end in zip(reversed(steps), bounds[-2::-1], bounds[:0:-1]):
                gh = gh_all[:, :, start:end]
                gh[:, :, : dh.shape[2]] += dh
                i, f, o, g = (act[:, k * hid : (k + 1) * hid] for k in range(4))
                gc = gh * o * (1.0 - tanh_c * tanh_c)
                gc[:, :, : dc.shape[2]] += dc
                if gc_all is not None:
                    gc += gc_all[:, :, start:end]
                dz = np.empty_like(act)
                for k, (a, b) in enumerate(((gc, g), (gc, c_prev), (gh, tanh_c), (gc, i))):
                    np.multiply(a, b, out=dz[:, k * hid : (k + 1) * hid])
                dz[:, : 3 * hid] *= act[:, : 3 * hid] * (1.0 - act[:, : 3 * hid])
                dz[:, 3 * hid :] *= 1.0 - g * g
                dz_all[:, :, start:end] = dz
                dc = gc * f
                if h_prev is not None:
                    dh = np.empty(h_prev.shape, h_prev.dtype)
                    for d, w in enumerate(w_h):
                        _, gs, xs = terms.setdefault(id(w), (w, [], []))
                        gs.append(dz[d])
                        xs.append(h_prev[d])
                        np.matmul(w.value.T, dz[d], out=dh[d])
            for z_d, dz_d in zip(zs, dz_all):
                _accumulate(z_d, dz_d, fresh=True)
            if state:
                _accumulate(state[0], dh.reshape(d_n * hid, -1), fresh=True)
                _accumulate(state[1], dc.reshape(d_n * hid, -1), fresh=True)

        return self._push(h_t, backward), c_t

    # ---- reverse pass ----

    def backward(self, loss: Tensor) -> None:
        """Adds d(loss)/d(x) to .grad of each tensor this tape's ops read but did not make;
        an op's output keeps its gradient only until its record has passed it on."""
        if self._records is None:
            raise RuntimeError("backward on a tape that does not record")
        if self._spent:
            raise RuntimeError("backward already ran on this tape; build a new one")
        if loss.value.shape != (1, 1):
            raise ShapeError(f"loss must be scalar-shaped (1, 1), got {loss.value.shape}")
        self._spent = True
        loss.grad = np.ones((1, 1), loss.value.dtype)
        terms = self._weight_terms
        for out, backward in reversed(self._records):
            if id(out) in terms:  # every use of out is behind us: its gradient is complete
                _add_weight_terms(*terms.pop(id(out)))
            if out.grad is not None:
                backward(out.grad)
                out.grad = None  # complete and passed on, so nothing reads it again: free it
        for entry in terms.values():
            _add_weight_terms(*entry)
        terms.clear()


def _add_weight_terms(a: Tensor, gs, xs) -> None:
    """Adds sum_k gs[k] @ xs[k].T to a's gradient as one matrix product."""
    _accumulate(a, np.hstack(gs) @ np.hstack(xs).T, fresh=True)


class ParameterStore:
    """The trainable tensors, with Adam moments made by the first adam_step, and the named
    entries of a model file, each a trainable tensor or a view of one's value.

    After ``train_in_float32`` each trainable tensor holds a float32 copy of its
    float64 master, which Adam steps and the entries view.
    """

    def __init__(self):
        self.trainable = []
        self._params = {}  # name -> entry
        self._masters = []  # the float64 value each trainable tensor copies, once train_in_float32 ran
        self._moments = []  # (m, v) of each trainable tensor
        self._scratch = ()  # adam_step's two float64 buffers
        self.step_count = 0

    def add(self, name: str, value, owner: Tensor = None) -> Tensor:
        """The entry ``name``: its own trainable tensor, or with ``owner`` a view of that tensor's value."""
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        self._params[name] = t = Tensor(value)
        if owner is None or owner not in self.trainable:
            self.trainable.append(owner or t)
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self):
        return self._params.items()

    def zero_grads(self) -> None:
        for t in self.trainable:
            t.grad = None

    def train_in_float32(self) -> None:
        """Keeps each trainable tensor's value, float64 in a model as built, as its master
        and gives the tensor a float32 copy.

        The entries keep viewing the masters, so a saved file holds them. A second
        call changes nothing.
        """
        if self._masters:
            return
        own = {id(p) for p in self.trainable}
        for name, entry in self._params.items():
            if id(entry) in own:  # the entry is the tensor itself: a new one holds the master
                self._params[name] = _result(entry.value)
        self._masters = [p.value for p in self.trainable]
        for p in self.trainable:
            p.value = p.value.astype(np.float32)

    def adam_step(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
        """Standard Adam update with bias correction, a missing gradient read as zero; grads are dropped after.

        Steps the masters (the values themselves before ``train_in_float32``) and the
        moments in float64, ADAM_CHUNK entries at a time through two scratch buffers,
        and writes each chunk's float32 copy in the same pass.
        """
        masters = self._masters or [p.value for p in self.trainable]
        if not self._moments:  # moments start at zero: a model that never trains holds none
            self._moments = [(np.zeros_like(w), np.zeros_like(w)) for w in masters]
            self._scratch = tuple(np.empty(max([ADAM_CHUNK, *(w.shape[1] for w in masters)])) for _ in range(2))
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - beta1**t
        bc2 = 1.0 - beta2**t
        for p, w, (m, v) in zip(self.trainable, masters, self._moments):
            step = ADAM_CHUNK // max(1, w.shape[1]) or 1  # rows per chunk
            for lo in range(0, w.shape[0], step):
                rows = slice(lo, lo + step)
                w_c, m_c, v_c = w[rows], m[rows], v[rows]
                a, b = (s[: w_c.size].reshape(w_c.shape) for s in self._scratch)
                m_c *= beta1
                v_c *= beta2
                if p.grad is not None:  # adding a zero gradient's terms would leave m and v as they are
                    np.copyto(a, p.grad[rows])
                    np.multiply(a, a, out=b)
                    b *= 1.0 - beta2
                    v_c += b
                    a *= 1.0 - beta1
                    m_c += a
                # w -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
                np.divide(m_c, bc1, out=a)
                a *= lr
                np.divide(v_c, bc2, out=b)
                np.sqrt(b, out=b)
                b += eps
                a /= b
                w_c -= a
                if p.value is not w:
                    p.value[rows] = w_c
        self.zero_grads()

    # ---- serialization ----
    # layout: MAGIC, u32 version, u32 entry count, then per entry
    # u32 name length, UTF-8 name, u32 rank, u32 dims, little-endian f64 data

    def to_bytes(self) -> bytes:
        chunks = [MAGIC, struct.pack("<I", FORMAT_VERSION), struct.pack("<I", len(self._params))]
        for name, p in self._params.items():
            encoded = name.encode("utf-8")
            chunks.append(struct.pack("<I", len(encoded)))
            chunks.append(encoded)
            chunks.append(struct.pack("<I", p.value.ndim))
            for dim in p.value.shape:
                chunks.append(struct.pack("<I", dim))
            chunks.append(np.ascontiguousarray(p.value, dtype="<f8").tobytes())
        return b"".join(chunks)

    def load_bytes(self, data: bytes) -> None:
        """Load values into the existing parameters, in their dtype; the file must hold exactly these."""
        seen = set()
        for name, value in _decode_entries(data):
            p = self._params.get(name)
            if p is None:
                raise SerializationError(f"unknown parameter {name!r} in model file")
            if name in seen:
                raise SerializationError(f"parameter {name!r} appears twice in model file")
            if p.value.shape != value.shape:
                raise SerializationError(
                    f"parameter {name!r}: file shape {value.shape} != expected {p.value.shape}"
                )
            with np.errstate(over="ignore"):  # beyond float32's range a value becomes inf, refused below
                p.value[:] = value
            if not np.isfinite(p.value).all():
                raise SerializationError(f"parameter {name!r} holds values that are not finite as {p.value.dtype}")
            seen.add(name)
        missing = [n for n in self._params if n not in seen]
        if missing:
            raise SerializationError(f"model file is missing parameters: {missing[:5]}")
        for p, w in zip(self.trainable, self._masters):
            p.value[...] = w


def _decode_entries(data: bytes):
    view = memoryview(data)
    if len(view) < 12 or bytes(view[:4]) != MAGIC:
        raise SerializationError("bad magic header: not a parser model file")
    (version,) = struct.unpack_from("<I", view, 4)
    if version != FORMAT_VERSION:
        raise SerializationError(f"unsupported model format version {version}")
    (count,) = struct.unpack_from("<I", view, 8)
    offset = 12
    entries = []
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<I", view, offset)
            offset += 4
            name = bytes(view[offset : offset + name_len]).decode("utf-8")
            if len(name.encode("utf-8")) != name_len:
                raise SerializationError("truncated model file")
            offset += name_len
            (rank,) = struct.unpack_from("<I", view, offset)
            offset += 4
            dims = struct.unpack_from(f"<{rank}I", view, offset)
            offset += 4 * rank
            n_values = math.prod(dims)  # exact: dims from a damaged file can be huge
            if offset + 8 * n_values > len(view):
                raise SerializationError("truncated model file")
            try:  # a zero dim passes the size check above beside dims too large to address
                values = np.frombuffer(view, dtype="<f8", count=n_values, offset=offset).reshape(dims)
            except ValueError:
                raise SerializationError(f"parameter {name!r}: dims {dims} are too large") from None
            entries.append((name, values))  # read-only views of ``data``
            offset += 8 * n_values
    except struct.error:
        raise SerializationError("truncated model file") from None
    except UnicodeDecodeError:
        raise SerializationError("parameter name is not UTF-8") from None
    if offset != len(view):
        raise SerializationError(f"{len(view) - offset} trailing bytes in model file")
    return entries
