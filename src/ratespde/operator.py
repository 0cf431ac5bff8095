"""Matrix-free spatial operator, directional tridiagonal solver, grid states.

The semi-discrete system keeps every grid node in one flat vector.  Nodes
with any zero component ("outer": the lower Dirichlet faces) are frozen
at their payoff values and have identically zero rows; all other nodes
("inner") carry second-order central differences.  On the upper faces
j_i = M_i the homogeneous Neumann condition is imposed by a mirrored
ghost node Y[J+E_i] = Y[J-E_i], so the second difference there reads

    (2 Y[J-E_i] - 2 Y[J]) / h_i^2,

while first differences and cross differences are dropped there.

Implementation notes: the flat vector of a shape reshapes (C order) to an
ndarray whose *last* axis is direction 1, so all stencils are evaluated
with numpy slice arithmetic, each operator building the time-independent
discretisation once.  Each directional solve scales the rows of its
lines by 1/d_j to a symmetric positive definite tridiagonal system and
solves it with LAPACK, per grid one chain of its distinct lines, factored
once per (direction, shift), whose repeated lines are the solve's
right-hand-side columns.  One ``GridOperator`` serves one grid or a batch
of small grids, and the grids' size picks how ``apply`` runs.  Grids of
at most ``CSR_MAX_NODES`` nodes, alone or batched, are one block-diagonal
CSR matrix, and a solve gathers the rows of all their lines into one
buffer.  A larger grid, always alone, is a flat program of ufunc calls on
prebuilt views of one padded copy of the input, extended by the ghost
layer.

A large grid cuts each unit of work, ``apply``'s program and each
directional solve, into parts, ranges of its outer axis: at least one
per thread it may use, one per core this process may use (``_threads``),
and parts of at most about ``_PART_NODES`` nodes, whose operands stay in
cache.  The calling thread runs the first part, and it and the helper
threads take the others in turn (``_run``).  Every element does the
arithmetic it does uncut, so the outputs are bitwise the serial ones.  A
solve's part is a range of axis 0 of its right-hand sides in chain
layout: a block of columns or, with no repeats, a run of whole lines.
Neither call copies a whole grid into its output: the calling thread
writes the frozen faces of a new, uninitialised array, zeros for
``apply`` and the input's values for a solve, and each part writes its
own rows of the interior.  A plan's components run on forked worker
processes (``_pool``).  One rule, kept here, makes them safe with the
helper threads: the before-fork hook, the only code that waits for
threads, stops the helpers and waits until the OS has retired every
engine thread Python has joined.

The three compiled routines used, LAPACK's ``dpttrf`` and ``dpttrs`` and
the CSR product ``csr_matvec``, come from scipy's extension modules
``scipy.linalg.cython_lapack`` and ``scipy.sparse._sparsetools``, loaded
from their files so that neither package's ``__init__`` runs (see
``_extension``).  The LAPACK routines are called through ``ctypes``,
which releases the interpreter lock, so every argument is checked here,
once, when a chain is factored (see ``_chain_parts``).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib.util
import math
import multiprocessing
import os
import re
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from importlib.machinery import PathFinder

import numpy as np
import scipy

from .indexing import GridShape
from .market import MarketData, PdeModel, ProductSpec, payoff

# Grids of at most this many nodes apply the operator as one CSR matrix
# product, and only they can share an operator.  Below it CSR beats the
# program on the small and thin grids of a plan; above it the program is
# as fast and a CSR matrix (about 120 B/node in 2D, 240 in 3D) costs
# memory and build time
CSR_MAX_NODES = 2**14

# A large grid's unit of work is cut into parts of at most about this many
# nodes, 256 KiB per operand, so that a part's operands stay in cache; one
# part per thread was slower (full2d on one core 1.27 -> 1.45 s, ROADMAP)
_PART_NODES = 2**15

# the processes that share this process's cores: in a ``combine`` pool's
# workers, the pool's size (see ``_share_cores``)
_processes = 1
_helpers = None  # the helper threads' pool, made on first use and stopped before a fork
_helpers_lock = threading.Lock()  # held to make, hand work to or stop the pool
_engine_threads: set[str] = set()  # OS ids the next fork waits for: helpers', pools' threads


def _cores() -> int:
    """The cores this process may run on: its affinity set, where the OS keeps one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _share_cores(processes: int) -> None:
    """Set the processes that share this process's cores; a pool worker's initializer.

    A worker that used every core instead ran two-worker plans slower
    (``caplet_sparse.txt`` at level 14, 0.28 -> 0.36 s; see ROADMAP).
    """
    global _processes
    _processes = processes


def _threads() -> int:
    """The threads a large grid's work may use: this process's share of the cores."""
    return max(1, _cores() // _processes)


def _os_threads() -> set[str]:
    """The ids of this process's OS threads, where the OS lists them (``/proc/self/task``)."""
    try:
        return set(os.listdir("/proc/self/task"))
    except OSError:
        return set()


def _before_fork() -> None:
    """Stop the helper threads, once their work is done, then wait, at most
    0.1 s, until the OS has retired every thread in ``_engine_threads``, and
    forget them.  This is the engine's only wait for threads: Python counts
    a thread as joined a little before the OS retires it, and a fork in
    between copies a process that the OS still counts as threaded, which
    Python 3.12 warns about."""
    global _helpers
    with _helpers_lock:
        if _helpers is not None:
            _helpers.shutdown()
            _helpers = None
        deadline = time.monotonic() + 0.1
        while _engine_threads & _os_threads() and time.monotonic() < deadline:
            time.sleep(1e-5)
        _engine_threads.clear()


if hasattr(os, "register_at_fork"):  # so that no fork, ours or a caller's, copies a thread
    os.register_at_fork(before=_before_fork)


@contextlib.contextmanager
def _pool(workers: int, jobs: int):
    """Yield ``submit(fn, *args)``, which returns a getter for ``fn(*args)``,
    run by the getter at one worker or one job, else on ``min(workers, jobs)``
    forked workers: they share the cores (``_share_cores``) and load nothing,
    as they see the engine exactly as this process does.  On exit, jobs not
    started are cancelled; the next fork waits for the pool's threads."""
    size = min(workers, jobs)
    if size < 2:
        yield functools.partial  # submit(fn, *args): a getter that runs fn here
        return
    before = _os_threads()
    pool = ProcessPoolExecutor(size, mp_context=multiprocessing.get_context("fork"),
                               initializer=_share_cores, initargs=(size,))
    try:
        yield lambda fn, *args: pool.submit(fn, *args).result
    finally:
        pool.shutdown(cancel_futures=True)
        with _helpers_lock:
            _engine_threads.update(_os_threads() - before)


def _run(tasks: list) -> None:
    """Call each task on this thread or one of the helper threads, as
    many threads in all as ``_threads`` allows: the first here, the others
    each on the next thread free.

    Every task has finished when this returns or raises, as the next call
    reuses the buffers they write.  The helpers are made on first use.
    """
    global _helpers
    threads = min(_threads(), len(tasks))
    rest = iter(tasks[1:])  # one ``next`` call hands each task to one thread

    def take() -> None:
        for task in rest:
            task()

    with _helpers_lock:
        if threads > 1 and _helpers is None:
            from concurrent.futures.thread import ThreadPoolExecutor

            _helpers = ThreadPoolExecutor(
                max(1, _cores() - 1),
                initializer=lambda: _engine_threads.add(str(threading.get_native_id())),
            )
        helpers = [_helpers.submit(take) for _ in range(threads - 1)]
    try:
        tasks[0]()
        take()
    finally:
        for future in helpers:
            future.exception()  # waits
    for future in helpers:
        future.result()


def _cut(rows: int, nodes: int) -> list[int]:
    """Bounds of near-equal ranges of ``rows`` rows holding ``nodes`` nodes
    in all: at least one per thread (``_threads``) and per ``_PART_NODES``
    nodes, at most one per row."""
    parts = min(rows, max(_threads(), math.ceil(nodes / _PART_NODES)))
    return [rows * p // parts for p in range(parts + 1)]


@dataclass
class StateVector:
    """Flat solution values over every node of one grid, outer faces included."""

    shape: GridShape
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.ascontiguousarray(self.values, dtype=float)
        if self.values.shape != (self.shape.total_points,):
            raise ValueError(
                f"state length {self.values.size} does not match grid "
                f"({self.shape.total_points} nodes)"
            )

    def view(self) -> np.ndarray:
        """ndarray view with direction 1 on the last axis."""
        return self.values.reshape(self.shape.reversed_points)


class GridOperator:
    """Semi-discrete right-hand side F(Y) and its directional resolvents
    over one grid, or over a batch of small grids whose flat vectors are
    concatenated in order.

    For each grid the constructor lists the stencil terms once, each a
    scaled coefficient over one slab of the ghost-extended grid and its
    inputs, each a sign and a flat offset in that grid; a cross or drift
    coefficient is zero on the upper faces of its directions.
    ``solve_directional(i, w, g)`` returns K with (I - w*A_i) K = g, A_i
    the direction-i second differences; it requires the frozen rows of g
    to vanish, which holds for every stage right-hand side, because it
    chains the interior rows only.  Grids of at most
    ``CSR_MAX_NODES`` nodes, one or many, are assembled one after another
    into one block-diagonal CSR matrix (see ``_assemble``), each grid's
    rows offset by the nodes before it, and per direction one buffer of
    their lines' rows.  A larger grid compiles its terms into one flat program
    (see ``_compile``) and is never batched.  Both methods return a new
    array; an instance must not serve concurrent calls, because every
    call works in arrays the instance owns, nor be copied or pickled, as
    its arrays alias one another and its chains' parts hold their addresses.
    """

    def __init__(self, market: MarketData, product: ProductSpec, *shapes: GridShape):
        for shape in shapes:
            if shape.ndim != product.dimension:
                raise ValueError(
                    f"grid has {shape.ndim} directions, product needs {product.dimension}"
                )
        if not shapes:
            raise ValueError("an operator needs at least one grid")
        small = all(s.total_points <= CSR_MAX_NODES for s in shapes)
        if not small and len(shapes) > 1:
            raise ValueError(f"a batch holds grids of at most {CSR_MAX_NODES} nodes")
        self.model = model = PdeModel(market, product)
        self.shapes = shapes
        self.shape = shapes[0] if len(shapes) == 1 else None  # a batch has no one shape
        self.n_directions = n = product.dimension
        self.size = sum(s.total_points for s in shapes)
        # per diffusive direction i: where its lines lie in the input (see
        # solve_directional), a batch's row scales and buffer, and per grid
        # its chain's distinct lines, right-hand sides and parts' bounds (_chain_parts)
        self._lines: dict[int, tuple] = {}
        # per valid (i, w) its chains' parts, False where nothing is solved
        self._factors: dict[tuple[int, float], list | bool] = {}
        self._matrix = None  # the small grids' CSR arrays (indptr, columns, values)
        pieces, start = [], 0  # each small grid's CSR part (see _assemble), its first node
        small_lines: dict[int, list] = {}  # per direction, each small grid's (r, interior rows)
        for shape in shapes:  # each grid's discretisation is let go before the next
            rev, h = shape.reversed_points, shape.spacings
            # The extended grid adds a ghost hyperplane past every upper
            # face; the slab is its rows 1..M_N of view axis 0.  View axis a
            # has flat stride step[a] in it
            ext = tuple(m + 1 for m in rev)
            slab = (rev[0] - 1,) + ext[1:]
            step = [math.prod(ext[a + 1 :]) for a in range(n)]

            def x(r: int) -> np.ndarray:
                """Direction-r coordinates over the slab, ghost included, along view axis n - r."""
                vals = np.append(shape.axis_coordinates(r), shape.bounds[r - 1] + h[r - 1])
                vals = vals[1:-1] if r == n else vals
                return vals.reshape([vals.size if a == n - r else 1 for a in range(n)])

            xs = {r: x(r) for r in range(1, n + 1)}
            # True where 0 < j_r < M_r: cross and drift terms skip the upper
            # faces; index 0 and the ghost are never copied out, so zero
            # there lets a one-interval direction drop its terms
            below = {r: (0.0 < v) & (v < shape.bounds[r - 1]) for r, v in xs.items()}

            # the stencil terms, in order: coef * (in_1 +- in_2 +- ...) over
            # the slab (the coefficient carries the 1/h^2, 1/(2h) or
            # 1/(4 h_i h_k) scale), inputs as (sign, flat offset in the
            # extended grid)
            terms = []

            def add(coef, *inputs) -> None:
                if np.any(coef):  # a vanishing coefficient contributes nothing
                    terms.append((coef, [(sign, sum(s * step[n - r] for r, s in moves.items()))
                                         for sign, moves in inputs]))

            # per diffusive direction i, its distinct lines: the interior
            # view's axis order that chains them (the axes that repeat the
            # line, then the V row for i < N, then the line) and their row
            # scales r, 1/d_j and 1/(2 d_M) on the Neumann row
            lines: dict[int, tuple[tuple[int, ...], np.ndarray]] = {}
            for i in range(1, n + 1):
                # d_i/h_i^2 over the slab, and over its inner rows 1..M_i
                d = model.diffusion(i, xs[i], xs[n]) / h[i - 1] ** 2
                inner = d[(slice(None),) * (n - i) + (slice(1, -1),)] if i < n else d
                if not np.any(inner):
                    continue
                if inner.min() < np.finfo(float).tiny:  # the solve divides each row by it
                    raise ValueError(f"diffusion coefficient of direction {i} underflows on some rows")
                chain = (0,) if i == n else (0, n - i)
                order = tuple(a for a in range(n) if a not in chain) + chain
                r = 1.0 / inner.transpose(order)[(0,) * (n - len(chain))]
                r[..., -1] *= 0.5
                lines[i] = (order, r)
                # on the Neumann face the ghost doubles the lower neighbour
                add(d, (1, {i: 1}), (1, {i: -1}), (-1, {}), (-1, {}))
            for i in range(1, n):
                for k in range(i + 1, n + 1):
                    coef = model.mixed(i, k, xs[i], xs[k], xs[n]) / (4.0 * h[i - 1] * h[k - 1])
                    add(coef * (below[i] & below[k]), (1, {i: 1, k: 1}), (1, {i: -1, k: -1}),
                        (-1, {i: 1, k: -1}), (-1, {i: -1, k: 1}))
            for i in range(2, n):
                coef = model.advection(i, [xs[j] for j in range(2, i + 1)], xs[n])
                add(coef / (2.0 * h[i - 1]) * below[i], (1, {i: 1}), (-1, {i: -1}))
            if small:
                nodes = np.arange(start, start + shape.total_points, dtype=np.int32).reshape(rev)
                pieces.append(_assemble(nodes, slab, terms))
                for i, (order, r) in lines.items():
                    small_lines.setdefault(i, []).append((r, nodes[(slice(1, None),) * n].transpose(order)))
                start += shape.total_points
            else:
                self._compile(shape, ext, slab, step, terms, lines)
        if small:
            # one block-diagonal matrix, and per direction one buffer of the
            # rows of every grid's lines in chain layout, grid after grid,
            # each grid's run the right-hand sides of its own chain; one
            # gather beat per-grid views of g (0-84% slower per solve, ROADMAP)
            values, columns, counts = zip(*pieces)
            indptr = np.concatenate([np.zeros(1, dtype=np.int32),
                                     np.cumsum(np.concatenate(counts), dtype=np.int32)])
            self._matrix = _csr(np.concatenate(values), np.concatenate(columns), indptr, self.size)
            for i, own in small_lines.items():
                rows = np.concatenate([at.reshape(-1) for _, at in own]).astype(np.intp)
                scales = np.concatenate([np.broadcast_to(r, at.shape).reshape(-1) for r, at in own])
                b = np.empty(rows.size)
                runs = np.split(b, np.cumsum([at.size for _, at in own])[:-1])
                grids = [(r, run.reshape(at.shape), None) for (r, at), run in zip(own, runs)]
                self._lines[i] = (rows, scales, b, grids)

    def _compile(self, shape: GridShape, ext: tuple, slab: tuple, step: list, terms: list,
                 lines: dict) -> None:
        """The terms as one flat program of (ufunc, in1, in2, out) steps per
        part, a range of the slab's rows (see ``_cut``).

        Each term sums its inputs into a work buffer and multiplies by its
        coefficient; the first term works in the accumulator, every later
        one adds its product to it.  An input is the slab shifted by its
        flat offset in one padded copy of the extended grid; a range's
        program works on its rows of each operand, a coefficient of one row
        serving every range.  A part ends by copying its rows of the slab's
        inner nodes, or zeros when every term vanishes, to the output's
        interior.  The solves' right-hand sides share the work array of the
        accumulator.
        """
        n, rev = shape.ndim, shape.reversed_points
        self._rev, self._interior = rev, (slice(1, None),) * n
        # the frozen faces, index 0 on each axis
        self._faces = [(slice(None),) * a + (0,) for a in range(n)]
        # shifts along the inner axes reach at most ``pad`` nodes past
        # either end of the padded copy
        pad = sum(step[1:])
        padded = np.zeros(math.prod(ext) + 2 * pad)
        grid = padded[pad : pad + math.prod(ext)].reshape(ext)
        self._nodes = grid[tuple(slice(m) for m in rev)]
        # ghost M_a + 1 mirrors M_a - 1, corners included, axis after axis
        self._ghosts = [
            (grid[(slice(None),) * a + (m,)], grid[(slice(None),) * a + (m - 2,)])
            for a, m in enumerate(rev)
        ]
        lo, size = pad + step[0], math.prod(slab)
        scratch = np.empty(2 * size)
        acc, buf = scratch[:size].reshape(slab), scratch[size:].reshape(slab)

        def program(a: int, z: int) -> functools.partial:
            """The terms over slab rows a..z - 1, and their inner nodes."""
            steps, rows, total = [], (z - a,) + slab[1:], acc[a:z]
            for t, (coef, inputs) in enumerate(terms):
                work = buf[a:z] if t else total  # the first term sums in the accumulator
                (_, first), *rest = [
                    (sign, padded[lo + at + a * step[0] : lo + at + z * step[0]].reshape(rows))
                    for sign, at in inputs
                ]
                steps.extend(
                    (np.add if sign > 0 else np.subtract, work if j else first, view, work)
                    for j, (sign, view) in enumerate(rest)
                )
                shared = np.ndim(coef) < n or len(coef) == 1
                steps.append((np.multiply, work, coef if shared else coef[a:z], work))
                if t:
                    steps.append((np.add, total, work, total))
            inner = total[(slice(None),) + (slice(1, -1),) * (n - 1)] if terms else 0.0
            return functools.partial(_program, steps, slice(a, z), inner)

        cut = _cut(slab[0], size) if terms else [0, slab[0]]
        self._programs = [program(a, z) for a, z in zip(cut, cut[1:])]
        # per diffusive direction, the axis order of its distinct lines (see
        # __init__), and their right-hand sides in the work array in chain
        # layout, cut into ranges of axis 0
        for i, (order, r) in lines.items():
            b = scratch[: shape.interior_points].reshape([rev[a] - 1 for a in order])
            self._lines[i] = (order, None, None, [(r, b, _cut(b.shape[0], b.size))])

    def __reduce__(self):
        raise TypeError("a GridOperator cannot be copied or pickled")

    # -- operator application --------------------------------------------

    def apply(self, y: np.ndarray) -> np.ndarray:
        y = _vector(y, self.size)
        if self._matrix is not None:
            out = np.zeros(self.size)
            _csr_matvec(self.size, self.size, *self._matrix, y, out)
            return out
        self._nodes[...] = y.reshape(self._rev)
        for ghost, mirror in self._ghosts:
            ghost[...] = mirror
        out = np.empty(self.size)
        view = out.reshape(self._rev)
        for face in self._faces:
            view[face] = 0.0
        _run([functools.partial(p, view[self._interior]) for p in self._programs])
        return out

    # -- directional resolvent -----------------------------------------

    def solve_directional(self, i: int, w: float, g: np.ndarray) -> np.ndarray:
        """Solve (I - w*A_i) K = g, one tridiagonal system per line.

        Frozen rows are identities, so K = g there.  Each grid chains only
        its distinct lines, as lines with equal coefficients share one
        factor: direction N has a single distinct line, a direction i < N
        one per V row.  Each call scales the interior rows of the
        direction-i lines in g, in chain layout, into the right-hand sides
        of each grid's chain, factored, checked and bound once per (i, w)
        (see ``_chain_parts``), whose leading axes are the repeats of the
        chain, solves them with ``dpttrs`` and writes the solution to the
        new array K.  Small grids copy g to K, gather and scale the rows of
        every grid into one buffer, make one ``dpttrs`` call per grid on
        its run of the buffer and scatter the solution back, so a grid's
        values are bitwise the same alone and in any batch.  A large
        grid's solve runs in parts, each a range of axis 0 of its
        right-hand sides, that scales its own rows of g, solves them and
        writes them to K, whose frozen faces alone are copied from g.  With
        w = 0 or no diffusion in direction i, K is a copy of g.
        """
        g = _vector(g, self.size)
        parts = self._factors.get((i, w))
        if parts is None:  # only a valid (i, w) is ever cached
            _check_solve(self.n_directions, i, w)
            parts = False
            if w != 0.0 and i in self._lines:
                parts = [part for r, b, cut in self._lines[i][3] for part in _chain_parts(r, w, b, cut)]
            self._factors[(i, w)] = parts
        if not parts:
            return g.copy()
        at, scales, b, _ = self._lines[i]
        if self._matrix is not None:  # ``at`` indexes the rows in ``b``, one part per grid
            out = g.copy()
            np.multiply(g[at], scales, b)
            for part in parts:
                _solve(*part[2:])
            out[at] = b
            return out
        # ``at`` is the axis order that chains the lines
        out = np.empty(self.size)
        source, target = g.reshape(self._rev), out.reshape(self._rev)
        for face in self._faces:
            target[face] = source[face]
        lines = [v[self._interior].transpose(at) for v in (source, target)]
        _run([functools.partial(_sweep, *lines, *part) for part in parts])
        return out

    def lines_in_direction(self, i: int) -> int:
        return sum(s.line_count(i) for s in self.shapes)


def _extension(package: str, name: str):
    """scipy's extension module ``scipy.<package>.<name>``.

    It is loaded from its file in the package's directory, so the
    package's ``__init__``, which imports all of ``scipy.linalg`` or
    ``scipy.sparse``, does not run.  Where the path finder finds no such
    file, it is imported normally.
    """
    spec = PathFinder.find_spec(name, [os.path.join(p, package) for p in scipy.__path__])
    if spec is None:
        return importlib.import_module(f"scipy.{package}.{name}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the C-API calls that open a capsule, as prototypes of our own, so that
# the shared ``ctypes.pythonapi`` functions keep their settings
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi)
)
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)
_LAPACK = _extension("linalg", "cython_lapack").__pyx_capi__
_INT = ctypes.POINTER(ctypes.c_int)
_INT_MAX = 2**31 - 1


def _routine(name: str, signature: str):
    """LAPACK's ``name`` as a ``ctypes`` function, which releases the interpreter lock.

    The Cython capsule holding the pointer is named by its C signature.
    With the typedef prefixes dropped it must read ``signature``: ``int *``
    is a 32-bit integer, ``d *`` a float64 array, passed by address.
    """
    capsule = _LAPACK[name]
    label = _capsule_name(capsule)
    found = re.sub(r"__pyx_t_\w*_", "", label.decode())
    if found != signature:
        raise ImportError(f"scipy's {name} reads {found!r}, not {signature!r}")
    args = signature.removeprefix("void (").removesuffix(")").split(", ")
    prototype = ctypes.CFUNCTYPE(None, *[_INT if a == "int *" else ctypes.c_void_p for a in args])
    return prototype(_capsule_pointer(capsule, label))


# arguments: n, d, e, info; and n, nrhs, d, e, b, ldb, info
_dpttrf = _routine("dpttrf", "void (int *, d *, d *, int *)")
_dpttrs = _routine("dpttrs", "void (int *, int *, d *, d *, d *, int *, int *)")
_csr_matvec = _extension("sparse", "_sparsetools").csr_matvec


def _csr(values: np.ndarray, columns: np.ndarray, indptr: np.ndarray, size: int) -> tuple:
    """The arrays (indptr, columns, values) of a size x size CSR matrix.

    ``csr_matvec`` trusts them, so this checks what scipy's constructor
    checks, and that every column lies in the matrix.
    """
    nnz = values.size
    shaped = indptr.shape == (size + 1,) and columns.shape == (nnz,)
    if not (shaped and indptr[0] == 0 and indptr[-1] == nnz):
        raise ValueError(f"CSR row pointers do not frame {nnz} entries of {size} rows")
    if np.any(indptr[1:] < indptr[:-1]):
        raise ValueError("CSR row pointers decrease")
    if nnz and not 0 <= columns.min() <= columns.max() < size:
        raise ValueError(f"CSR column outside 0..{size - 1}")
    return indptr, columns, values


def _assemble(nodes: np.ndarray, slab: tuple[int, ...], terms: list) -> tuple:
    """One small grid's part of the CSR matrix: (values, columns, counts).

    ``nodes`` numbers the grid's nodes in view layout, after the nodes of
    the grids before it.  The CSR entries hold the terms over every node,
    ``counts`` giving each node's number of entries, none on a frozen row.
    Row p holds, term after term, weight * coef at p at the node that each
    distinct offset of the term's inputs reaches from p, a ghost mirrored
    onto its node M_i - 1; the weight sums the signs of the inputs with
    that offset (the centre's -2).  On a Neumann face the +1 and -1 shifts
    reach one node as two entries.  Exact zeros are dropped.  A term's
    entries are +-coef and -2 coef summing to zero, so on a constant the
    row sum returns exactly to zero after every term and the product
    annihilates constants, as the program does.
    """
    rev = nodes.shape
    counts = np.zeros(rev, dtype=np.int32)
    if not terms:
        return np.zeros(0), np.zeros(0, dtype=np.int32), counts.reshape(-1)
    # node index over the ghost-extended grid, the ghost mirrored onto
    # M - 1, and the extended grid's flat index of each interior node
    ext = nodes[np.ix_(*[np.append(np.arange(m), m - 2) for m in rev])]
    at = np.ravel_multi_index(np.ix_(*[np.arange(1, m) for m in rev]), ext.shape)
    offsets, of_term, weights = [], [], []
    for t, (_, inputs) in enumerate(terms):
        merged: dict[int, int] = {}  # equal offsets merge: the centre's -2
        for sign, offset in inputs:
            merged[offset] = merged.get(offset, 0) + sign
        offsets += merged
        of_term += [t] * len(merged)
        weights += merged.values()
    reach = ext.reshape(-1)[at.reshape(-1, 1) + np.array(offsets)]
    inner = (slice(None),) + (slice(1, -1),) * (len(rev) - 1)  # the slab's interior nodes
    coefs = np.stack([np.broadcast_to(coef, slab)[inner] for coef, _ in terms], -1)
    vals = coefs.reshape(-1, len(terms))[:, of_term] * weights
    keep = vals != 0.0
    counts[(slice(1, None),) * len(rev)] = keep.sum(1).reshape([m - 1 for m in rev])
    return vals[keep], reach[keep], counts.reshape(-1)


def _program(steps: list, rows: slice, result, out: np.ndarray) -> None:
    """Run one part's steps and copy its ``result`` to ``rows`` of ``out``."""
    for ufunc, a, b, o in steps:
        ufunc(a, b, o)
    out[rows] = result


def _sweep(source: np.ndarray, target: np.ndarray, rows: slice, r: np.ndarray, b: np.ndarray,
           *solve) -> None:
    """Scale ``rows`` of the lines ``source``, in chain layout, by ``r`` into
    one part's right-hand sides ``b``, solve and write the solution to those
    rows of ``target``."""
    np.multiply(source[rows], r, b)
    _solve(b, *solve)
    target[rows] = b


def _vector(y, size: int) -> np.ndarray:
    """``y`` as a float array, checked to hold one value per node of the operator."""
    y = np.asarray(y, dtype=float)
    if y.shape != (size,):
        raise ValueError(f"vector length {y.size} does not match the operator ({size} nodes)")
    return y


def _check_solve(n: int, i: int, w: float) -> None:
    if not 1 <= i <= n:
        raise ValueError(f"direction {i} outside 1..{n}")
    if not 0.0 <= w < math.inf:
        raise ValueError("directional solve needs a finite nonnegative shift")


def _chain_parts(r: np.ndarray, w: float, b: np.ndarray, cut=None) -> list[tuple]:
    """One grid's distinct lines of I - w*A_i, rows scaled by r, factored
    once and bound, in parts, to the right-hand sides ``b``.

    ``r``'s last axis is a line, whose last row is its Neumann row.  Row
    j, (1 + 2wd_j) x_j - wd_j (x_{j-1} + x_{j+1}), times r_j = 1/d_j has
    diagonal r_j + 2w and off-diagonals -w; the Neumann row (-2wd_M on its
    lower neighbour) times r_M = 1/(2d_M) has diagonal r_M + w.  Rows of
    different lines couple with zero.

    ``b`` is in chain layout, C-ordered: trailing axes shaped as ``r``,
    leading axes, if any, the repeats of the lines, each a column.
    ``dpttrf`` and ``dpttrs`` trust their pointers, so this checks once
    what scipy's wrappers checked on every call: float64 ``r``, ``b``,
    ``d`` and ``e`` (typed by ``w``), ``b``'s shape, sizes that fit a C
    int, and ``b``, writable and C-contiguous.

    ``cut`` bounds the parts (one if None), ranges of axis 0 of ``b`` and,
    with no repeats, of ``r``, whose rows are whole lines: blocks of
    right-hand sides or runs of lines, whose factor is the slice of the
    chain's, as the lines couple with zero.  Each part is (rows, r, b, d,
    e, args, info), solved apart with its own ``info`` (see ``_solve``);
    it holds every array whose address it passes, ``b`` and its slices of
    the factor ``d`` and ``e``.
    """
    n, m = r.size, r.shape[-1]
    if b.shape[b.ndim - r.ndim :] != r.shape:
        raise ValueError(f"a chain of rows shaped {r.shape} has right-hand sides of shape {b.shape}")
    if max(n, b.size // n) > _INT_MAX:
        raise ValueError(f"{n} rows and {b.size // n} right-hand sides exceed LAPACK's 32-bit sizes")
    if not b.flags.c_contiguous:
        raise ValueError("a tridiagonal system needs contiguous, C-ordered right-hand sides")
    if not b.flags.writeable:
        raise ValueError("the right-hand sides of a tridiagonal solve must be writable")
    d = r + 2.0 * w
    d[..., -1] = r[..., -1] + w
    d = d.reshape(-1)
    e = np.full(n - 1, -w)
    e[m - 1 :: m] = 0.0  # a row couples to its neighbours on the same line only
    if not r.dtype == b.dtype == d.dtype == e.dtype == np.float64:
        raise ValueError("a tridiagonal system needs float64 arrays and shift")
    if n > 1:
        info = ctypes.c_int()
        _dpttrf(ctypes.c_int(n), d.ctypes.data, e.ctypes.data, info)
        if info.value != 0:
            raise FloatingPointError(f"tridiagonal factorisation failed (info={info.value})")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise FloatingPointError("non-finite tridiagonal factor")
    repeats, cut = b.ndim > r.ndim, cut or (0, len(b))
    parts = []
    for a, z in zip(cut, cut[1:]):  # per part, its first row in the chain and its rows
        at, rows = (0, n) if repeats else (a * b[0].size, (z - a) * b[0].size)
        part_d, part_e, info, args = d[at : at + rows], e[at:], ctypes.c_int(), None
        # a part of one row is its own factor and is divided in numpy, as
        # ``dpttrs`` divides each row of a longer chain (it would multiply
        # this one by 1/d), so a row's bits do not depend on its part
        if rows > 1:
            block = b[a:z].reshape(-1, rows).T  # Fortran-ordered, one column per right-hand side
            size = ctypes.c_int(rows)
            args = (size, ctypes.c_int(block.shape[1]), part_d.ctypes.data,
                    part_e.ctypes.data, block.ctypes.data, size, info)
        parts.append((slice(a, z), r if repeats else r[a:z], b[a:z], part_d, part_e, args, info))
    return parts


def _solve(b: np.ndarray, d: np.ndarray, e: np.ndarray, args: tuple | None, info: ctypes.c_int) -> None:
    """Overwrite the right-hand sides ``b`` of one part of a chain with the
    solution; ``args`` passes the addresses of ``b`` and of the factor ``d``, ``e``."""
    if args is None:
        b /= d
        return
    _dpttrs(*args)
    if info.value != 0:
        raise FloatingPointError(f"tridiagonal solve failed (info={info.value})")


def initial_state(market: MarketData, product: ProductSpec, shape: GridShape) -> StateVector:
    """Payoff values at every node; this is the PDE initial condition.

    The payoff depends on the forward coordinates only, so values are
    constant along the volatility axis, and the zero faces automatically
    hold the payoff as their frozen boundary values.
    """
    if shape.ndim != product.dimension:
        raise ValueError(
            f"grid has {shape.ndim} directions, product needs {product.dimension}"
        )
    n = shape.ndim
    forwards = []
    for loc in range(1, n):
        vals = shape.axis_coordinates(loc)
        shp = [1] * n
        shp[shape.axis_of(loc)] = vals.size
        forwards.append(vals.reshape(shp))
    g = np.asarray(payoff(market, product, forwards), dtype=float)
    full = np.broadcast_to(g, shape.reversed_points)
    return StateVector(shape, np.ascontiguousarray(full).reshape(-1))


def interpolate(state: StateVector, point) -> float:
    """Multilinear interpolation of a grid state at an interior point.

    Blends the enclosing cell linearly along one direction at a time.
    Exact on grid nodes and on any function that is affine per direction.
    """
    shape = state.shape
    if len(point) != shape.ndim:
        raise ValueError(f"point needs {shape.ndim} coordinates")
    value = state.view()
    for r in range(shape.ndim, 0, -1):  # direction N is the view's first axis
        x = float(point[r - 1])
        bound = shape.bounds[r - 1]
        if not 0.0 <= x <= bound:
            raise ValueError(f"coordinate {x} outside [0, {bound}]")
        t = x / shape.spacings[r - 1]
        cell = min(int(math.floor(t)), shape.interior_counts[r - 1] - 1)
        t -= cell
        value = (1.0 - t) * value[cell] + t * value[cell + 1]
    return float(value)
