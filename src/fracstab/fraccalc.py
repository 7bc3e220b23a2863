"""Fractional integral and derivative operators on graded meshes.

The integral of order ``alpha`` against a reparametrisation ``psi`` reduces,
in the transformed coordinate ``x = psi(t)``, to the classical convolution
with the power kernel ``(X - x)**(alpha-1)``.  The operator here uses
product integration: the integrand's smooth factor is interpolated
piecewise-linearly in ``x`` and the kernel moments of every cell are
integrated in closed form, which makes the rule exact for constants and
keeps all weights nonnegative.

Data with a stored weight ``w = 1 - g`` is integrated against the
singular basis on every cell: the underlying function is represented as
``(x - x0)**(g-1)`` times the piecewise-linear interpolant of the stored
values.  The blow-up therefore never meets a linear interpolant, and the
rule is exact for the kernel monomial itself.  Where both singular points,
``x0`` and the evaluation node, lie two or more cell widths from a cell,
its moments come from a Gauss-Legendre rule, which is exact to rounding
there: 8 nodes from 2 widths, 4 from 33 and 3 from 170, so most cells of
a large table need 3 or 4.  The few cells next to ``x0`` and before the
evaluation node take them as incomplete beta integrals, evaluated by a
continued fraction.  Both kinds of table are built in pieces of about
256 KiB: rows of the plain table, tiles along the diagonal or down the
columns of the weighted one.  A table is lower triangular, so it is
built, held, stored and applied as blocks of rows that leave out the
zeros right of their last row, packed back to back in one buffer.

The derivative of order ``(alpha, beta)`` is a diagnostic composition:
integral of order ``(1-beta)(1-alpha)``, first-order derivative in the
transformed coordinate by ``np.gradient``'s second-order differences, then
integral of order ``beta(1-alpha)``.  It is deliberately simple; the
residual helpers below quantify how well the inversion identities hold on
a given mesh.
"""

from __future__ import annotations

import math
import os
import struct
import sys
import weakref
import zlib
from collections import OrderedDict
from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from .errors import ContractError, ConvergenceError, DomainError
from .psi_space import FracOrder, GridFunction, Mesh, PsiMap, build_mesh, default_grading
from .specfun import gamma_fn, log_gamma, mittag_leffler_many

__all__ = [
    "FracIntegralOperator",
    "hilfer_derivative",
    "integrate_derivative_residual",
    "differentiate_integral_residual",
    "kernel_null_residual",
    "gronwall_bound",
    "run_operator_checks",
    "OperatorCheckRow",
    "OperatorCheckReport",
    "DESIGN_ORDERS",
    "KERNEL_NULL_TOL",
]


# ---------------------------------------------------------------------------
# incomplete beta (the weighted table's cells next to x0 and X)

def _beta_fraction(a: float, b: float, x: np.ndarray) -> np.ndarray:
    # vectorized Lentz over a 1-d array of abscissae, scalar parameters;
    # converged entries are written out and leave the working arrays
    max_it = 300
    eps = 3e-16
    fpmin = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    out = np.empty_like(x)
    idx = np.arange(x.size)
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d = np.where(np.abs(d) < fpmin, fpmin, d)
    d = 1.0 / d
    h = d.copy()
    for m in range(1, max_it + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < fpmin, fpmin, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < fpmin, fpmin, c)
        d = 1.0 / d
        h = h * d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < fpmin, fpmin, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < fpmin, fpmin, c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < eps
        if done.any():
            out[idx[done]] = h[done]
            live = ~done
            idx, x, c, d, h = idx[live], x[live], c[live], d[live], h[live]
            if not idx.size:
                return out
    raise ConvergenceError(f"incomplete beta fraction stalled at ({a!r}, {b!r})")


def _lower_beta_many(p: float, q: float, theta: np.ndarray) -> np.ndarray:
    """Vectorised incomplete beta ``B(theta; p, q)``, scalar parameters.

    Below ``(p + 1) / (p + q + 2)`` it is the continued fraction times
    ``theta**p * (1 - theta)**q / p``; above, ``B(p, q)`` minus the
    mirrored one.
    """
    full = math.exp(log_gamma(p) + log_gamma(q) - log_gamma(p + q))
    out = np.where(theta >= 1.0, full, 0.0)
    mid = (theta > 0.0) & (theta < 1.0)
    x = theta[mid]
    front = np.exp(p * np.log(x) + q * np.log1p(-x))
    res = np.empty_like(x)
    direct = x < (p + 1.0) / (p + q + 2.0)
    if np.any(direct):
        res[direct] = front[direct] * _beta_fraction(p, q, x[direct]) / p
    other = ~direct
    if np.any(other):
        res[other] = full - front[other] * _beta_fraction(q, p, 1.0 - x[other]) / q
    out[mid] = res
    return out


# ---------------------------------------------------------------------------
# the integral operator

#: Temporaries of a table build cover about this many bytes: one group of
#: rows of the plain table, one tile of the weighted table.
_BLOCK_BYTES = 256 << 10

#: Rows per block of a table (see ``_block_bounds``); a multiple of 32.
#: numpy's ``einsum`` sums each row from its start in groups of up to 4
#: SIMD vectors (32 doubles with AVX-512), so when every block's rows stop
#: at a multiple of 32 or at the last column, the entries a block leaves out
#: are zeros that would have added exactly 0, and the blocked product keeps
#: every bit of the square one.  Heights of 36, 50 and 100 changed bits.
_BLOCK_ROWS = 64

#: A table: its row blocks in order, ``(r1 - r0) x r1`` each (see
#: ``_block_bounds``); a built one is a tuple of views of its packed buffer,
#: a stored one a ``_StoredTable``.
_Table = Iterable[np.ndarray]

#: Byte budget of the process-wide table cache; the newest table always stays.
_CACHE_BYTES = 128 << 20

#: Byte budget of the on-disk table store (see ``_load_table``); a table
#: larger than this is not stored, and the oldest files go first.
_STORE_BYTES = 256 << 20

#: Tables smaller than this (n < 127) skip the store: a plain one builds in
#: about the time a load takes (0.3 ms), and storing one costs more.
_STORE_MIN_BYTES = 128 << 10

#: Gauss-Legendre rules on [0, 1] for the separated cells of a weighted
#: table, fewest nodes last: ``(separation, nodes s_q, weights w_q)``, the
#: nodes and weights being the exact values rounded to double.  They are
#: literals rather than ``np.polynomial.legendre.leggauss``, whose LAPACK
#: eigensolver would tie the tables to the BLAS build.  A cell whose two
#: singular points, ``x0`` and the evaluation node, both lie ``separation``
#: cell widths or more away takes the rule.  Its integrand is then analytic
#: inside the Bernstein ellipse ``rho = z + sqrt(z**2 - 1)``,
#: ``z = 1 + 2 * separation``, and an N-point rule sums a hat moment with
#: an error of order ``rho**(1 - 2N)`` (Trefethen, SIAM Rev. 50 (2008)
#: 67-87): 1e-15 at 2 widths for 8 nodes and at 33 for 4, 7e-15 at 170 for
#: 3.  For kernel exponents of size 1/2 one moment errs by 2e-16, 5e-16 and
#: 1.2e-15; neighbouring cells err alike and cancel in a table entry.
_GL_RULES = (
    (2.0, np.array([
        0.019855071751231884, 0.10166676129318664, 0.2372337950418355,
        0.4082826787521751, 0.591717321247825, 0.7627662049581645,
        0.8983332387068134, 0.9801449282487681,
    ]), np.array([
        0.05061426814518813, 0.11119051722668724, 0.15685332293894363,
        0.181341891689181, 0.181341891689181, 0.15685332293894363,
        0.11119051722668724, 0.05061426814518813,
    ])),
    (33.0, np.array([
        0.06943184420297371, 0.33000947820757187, 0.6699905217924281,
        0.9305681557970263,
    ]), np.array([
        0.17392742256872692, 0.32607257743127305, 0.32607257743127305,
        0.17392742256872692,
    ])),
    (170.0, np.array([
        0.11270166537925831, 0.5, 0.8872983346207417,
    ]), np.array([
        0.2777777777777778, 0.4444444444444444, 0.2777777777777778,
    ])),
)

#: Tables and the bytes of their packed buffers, least recently used first,
#: keyed by everything a table depends on: ``(mesh offsets, alpha, input
#: weight exponent)``.  A hit therefore returns the very bits a fresh build would.
_cache: OrderedDict[tuple[bytes, float, float], tuple[_Table, int]] = OrderedDict()


class FracIntegralOperator:
    """Lower-triangular quadrature tables for one mesh and one order.

    One table per input weight exponent, fetched by every apply from a
    process-wide cache, which finds it in the on-disk store or builds it;
    tables are shared between operators and read-only.  Entry ``[i, j]``
    multiplies the stored value at node ``j`` when evaluating the integral
    at node ``i``; row 0 is identically zero, and so is every entry with
    ``j > i``.  Applied to ones, the plain table gives
    ``(psi(t_i) - psi(a))**alpha / gamma(alpha + 1)`` up to rounding,
    which is the exactness-on-constants property the tests pin down.

    A table is its read-only row blocks (``_block_bounds``): block ``k``
    holds rows ``[r0, r1)`` and columns ``[0, r1)``, about half of the
    ``(n+1)**2`` square (17.3 MB instead of 33.6 MB at n = 2048).  A built
    table's blocks view one packed buffer in memory.  A table found in the
    store stays in its file (``_StoredTable``): each apply reads the blocks
    in order into one buffer the size of the widest (1 MiB at n = 2048),
    so no more of it is ever resident.  A weighted build fills the square
    first, so ``build_mesh`` refuses meshes whose square would exceed
    1 GiB (n > 11584).
    """

    def __init__(self, mesh: Mesh, alpha: float):
        if not (0.0 < alpha and math.isfinite(alpha)):
            raise DomainError(f"integral order must be positive, got {alpha!r}")
        self.mesh = mesh
        self.alpha = float(alpha)

    def apply(self, u: GridFunction) -> GridFunction:
        """Integrate ``u``.

        Plain input yields a plain result that vanishes at ``t = a``.  For
        weighted input the output representation follows the power rule:
        with ``g_out = g_u + alpha``, the result is plain when
        ``g_out >= 1`` (value at ``a``: zero for ``g_out > 1``, the
        continuous limit ``gamma_fn(g_u) * stored(a) / gamma_fn(g_out)``
        when ``g_out == 1``) and is stored with weight ``1 - g_out``
        otherwise, since the plain value then diverges at ``a``.

        Both paths reduce their table against the data with ``_matvec``,
        numpy's own fixed-order sum rather than BLAS, so certificate and
        CSV numbers do not depend on the BLAS build.
        """
        if not u.mesh.same_as(self.mesh):
            raise ContractError("grid function lives on a different mesh")
        out = _matvec(_shared_table(self.mesh, self.alpha, u.weight_exp), u.values)
        if u.weight_exp == 0.0:
            out[0] = 0.0
            return GridFunction(self.mesh, out, 0.0)
        # weighted data: underlying u = (x - x0)**(g-1) * stored, g = 1 - w
        gamma_u = 1.0 - u.weight_exp
        gamma_out = gamma_u + self.alpha
        limit0 = gamma_fn(gamma_u) * u.values[0] / gamma_fn(gamma_out)
        if gamma_out > 1.0 + 1e-12:
            out[0] = 0.0
            return GridFunction(self.mesh, out, 0.0)
        if gamma_out >= 1.0 - 1e-12:
            out[0] = limit0
            return GridFunction(self.mesh, out, 0.0)
        out[1:] *= np.power(self.mesh.offsets[1:], 1.0 - gamma_out)
        out[0] = limit0
        return GridFunction(self.mesh, out, 1.0 - gamma_out)


def _matvec(blocks: _Table, u: np.ndarray) -> np.ndarray:
    """``W @ u`` for the table ``W`` held as ``blocks``, summed by numpy in a
    fixed order, never by BLAS.

    Each block's rows meet ``u[:r1]`` only; with ``_BLOCK_ROWS`` a multiple
    of 32 that gives the bits of the square product.  ``optimize`` must stay
    off: the optimized ``einsum`` path hands the product back to BLAS, whose
    ``dgemv`` summation order depends on the BLAS build and moved reported
    certificates by an ulp.  A ``_StoredTable`` reads each block from its
    file as the loop reaches it, into the buffer of the block before.
    """
    out = np.empty(u.shape[0])
    for block in blocks:
        r1 = block.shape[1]
        np.einsum("ij,j->i", block, u[:r1], out=out[r1 - block.shape[0]:r1])
    return out


def _pow_diffs(B: np.ndarray, A: np.ndarray, exponents) -> list[np.ndarray]:
    """Stable elementwise ``A**p - B**p`` for ``0 <= B <= A``, one array per ``p``.

    Graded meshes put cells many orders of magnitude thinner than their
    distance to the evaluation node; the naive difference then loses all
    its leading digits.  Where ``(A-B)/B < 1/2`` the difference is written
    as ``B**p * expm1(p * log1p((A-B)/B))``, which keeps it accurate to
    rounding; elsewhere it is ``A**p - B**p``.  The first form runs over
    every element, with a finite stand-in ratio on the others, and only the
    few others (next to the evaluation node in a table) are gathered for
    the second; each element still gets exactly one of the two forms.
    """
    ratio = np.full_like(A, np.inf)
    np.divide(A - B, B, out=ratio, where=B > 0.0)
    far = np.flatnonzero(~(ratio < 0.5))
    A_far = A.ravel()[far]
    B_far = B.ravel()[far]
    np.minimum(ratio, 0.5, out=ratio)
    log_ratio = np.log1p(ratio, out=ratio)
    scaled = np.empty_like(ratio)
    out = []
    for p in exponents:
        d = np.power(B, p)
        np.multiply(log_ratio, p, out=scaled)
        d *= np.expm1(scaled, out=scaled)
        d.ravel()[far] = np.power(A_far, p) - np.power(B_far, p)
        out.append(d)
    return out


def _block_bounds(n: int) -> list[tuple[int, int]]:
    """Row ranges ``[r0, r1)`` of an ``(n+1)``-row table's blocks, ``_BLOCK_ROWS`` each.

    A block's rows read columns ``[0, r1)``; every entry right of them is zero.
    """
    return [(r0, min(r0 + _BLOCK_ROWS, n + 1)) for r0 in range(0, n + 1, _BLOCK_ROWS)]


def _packed_size(n: int) -> int:
    """Doubles in the blocks of an ``(n+1)``-row table, held back to back."""
    return sum((r1 - r0) * r1 for r0, r1 in _block_bounds(n))


def _blocks(packed: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """The row blocks of an ``(n+1)``-row table, as views of its packed buffer."""
    blocks, start = [], 0
    for r0, r1 in _block_bounds(n):
        stop = start + (r1 - r0) * r1
        blocks.append(packed[start:stop].reshape(r1 - r0, r1))
        start = stop
    return tuple(blocks)


def _shared_table(mesh: Mesh, alpha: float, weight_exp: float) -> _Table:
    """The read-only table from ``_cache``; on a miss it is read from the
    on-disk store, as a ``_StoredTable``, or built and then stored.

    The cache counts a table's packed bytes, also for a stored table, which
    holds an open file instead, so the files held stay bounded too.  It is
    a table's only holder between applies, so eviction frees a built table
    and closes a stored one's file.
    """
    key = (mesh.offsets.tobytes(), alpha, weight_exp)
    hit = _cache.get(key)
    if hit is not None:
        _cache.move_to_end(key)
        return hit[0]
    use_store = 8 * (mesh.n + 1) ** 2 >= _STORE_MIN_BYTES
    table = _load_table(key, mesh.n) if use_store else None
    if table is None:
        if weight_exp == 0.0:
            packed = _build_plain_table(mesh, alpha)
        else:
            packed = _build_weighted_table(mesh, alpha, 1.0 - weight_exp)
        packed.setflags(write=False)
        if use_store:
            _save_table(key, mesh.n, packed)
        table = _blocks(packed, mesh.n)
    _cache[key] = table, 8 * _packed_size(mesh.n)
    held = sum(nbytes for _, nbytes in _cache.values())
    while held > _CACHE_BYTES and len(_cache) > 1:
        held -= _cache.popitem(last=False)[1][1]
    return table


# ---------------------------------------------------------------------------
# the on-disk table store
#
# One ``.tbl`` file per table under ``$XDG_CACHE_HOME/fracstab/tables``
# (``~/.cache/fracstab/tables`` by default): the exact key's bytes, then the
# doubles of the table's row blocks, one after another.  The key is
# the in-process one plus a build stamp (the sources that compute a table,
# numpy's version, the CPU features numpy dispatches to, the Python build,
# the machine and the C library), and a load compares all of it, so a hit
# returns the very bits a fresh build would.  A file is synced to disk
# before it gets its name.  The file name is a digest of the key and only
# names the file.  Every failure of the store while it is searched is a
# miss: the table is then built in memory, and nothing is reported.  A
# file found stays open, and each apply reads its blocks again; one that
# has lost bytes since then fails that apply with an ``OSError``.

#: The build stamp and its CRC-32, read on first use.
_stamp: tuple[bytes, int] | None = None


def _packed(parts) -> bytes:
    return b"".join(struct.pack("<Q", len(p)) + p for p in parts)


def _build_stamp() -> tuple[bytes, int]:
    global _stamp
    if _stamp is None:
        try:
            from numpy._core._multiarray_umath import __cpu_features__
        except ImportError:  # numpy < 2
            from numpy.core._multiarray_umath import __cpu_features__
        features = ",".join(sorted(f for f, on in __cpu_features__.items() if on))
        # numpy's scalar loops and math.exp/log/pow call the C math library
        try:
            libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
        except (AttributeError, ValueError, OSError):  # not glibc, or not POSIX
            libc = ""
        machine = os.uname().machine if hasattr(os, "uname") else ""
        parts = [b"fracstab table", np.__version__.encode(), features.encode(),
                 sys.version.encode(), sys.platform.encode(), machine.encode(), libc.encode()]
        here = os.path.dirname(os.path.abspath(__file__))
        for name in ("fraccalc.py", "specfun.py"):
            with open(os.path.join(here, name), "rb") as f:
                parts.append(f.read())
        stamp = _packed(parts)
        _stamp = stamp, zlib.crc32(stamp)
    return _stamp


def _store_entry(key: tuple[bytes, float, float], n: int) -> tuple[str, bytes]:
    """File name and stored key bytes of ``key``'s table.

    The file holds these bytes, then the doubles of the row blocks of
    ``_block_bounds(n)``, each ``(r1 - r0) x r1`` in row order: about half
    of the ``(n+1)**2`` square.
    """
    offsets, alpha, weight_exp = key
    stamp, crc = _build_stamp()
    tail = _packed([offsets, struct.pack("<dd", alpha, weight_exp)])
    return f"{n}-{zlib.crc32(tail, crc):08x}.tbl", stamp + tail


def _store_dir() -> str:
    """The store directory, created on first use; it must be private to the user."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "fracstab", "tables")
    os.makedirs(os.path.dirname(path), mode=0o700, exist_ok=True)
    os.makedirs(path, mode=0o700, exist_ok=True)
    st = os.stat(path)
    if st.st_mode & 0o022 or (hasattr(os, "getuid") and st.st_uid != os.getuid()):
        raise PermissionError(f"{path} is not private to the user")
    return path


def _load_table(key: tuple[bytes, float, float], n: int) -> _StoredTable | None:
    """The stored table for ``key``, its file open and checked, or None on a miss.

    The file must hold the key bytes, then exactly the table's doubles.
    """
    try:
        name, raw = _store_entry(key, n)
        path = os.path.join(_store_dir(), name)
        f = open(path, "rb", buffering=0)
    except OSError:
        return None
    try:
        if (os.fstat(f.fileno()).st_size == len(raw) + 8 * _packed_size(n)
                and f.read(len(raw)) == raw):
            os.utime(path)  # eviction goes by last use
            return _StoredTable(f, len(raw), n)
    except OSError:
        pass
    f.close()
    return None


class _StoredTable:
    """The row blocks of a table in the store, read from its open file.

    Each pass reads the blocks in order, each with one ``seek`` and one
    ``readinto``, into a buffer the size of the widest block, and yields
    it read-only; the next block overwrites it.  A file that ends early
    raises ``OSError`` before its block is yielded.  The file closes when
    the table is dropped, which ``_cache`` does when it evicts it.
    """

    def __init__(self, f, start: int, n: int):
        self._file, self._start, self._bounds = f, start, _block_bounds(n)
        weakref.finalize(self, f.close)

    def __iter__(self):
        f, pos = self._file, self._start
        buf = np.empty(max((r1 - r0) * r1 for r0, r1 in self._bounds))
        for r0, r1 in self._bounds:
            flat = buf[:(r1 - r0) * r1]
            f.seek(pos)
            if f.readinto(flat) != flat.nbytes:
                raise OSError(f"table store file {f.name} is shorter than when it was opened")
            pos += flat.nbytes
            block = flat.reshape(r1 - r0, r1)
            block.flags.writeable = False
            yield block


def _save_table(key: tuple[bytes, float, float], n: int, packed: np.ndarray) -> None:
    """Store the packed table atomically, then evict the oldest files over budget."""
    tmp = None
    try:
        name, raw = _store_entry(key, n)
        if len(raw) + packed.nbytes > _STORE_BYTES:
            return
        store = _store_dir()
        path = os.path.join(store, name)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "wb") as f:
            f.write(raw)
            f.write(packed)
            # on disk before the rename, so a crash cannot leave a named file
            # whose key is there but whose table is not
            os.fsync(f.fileno())
        os.replace(tmp, path)
        tmp = None
        _evict(store, path)
    except OSError:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _evict(store: str, newest: str) -> None:
    """Delete the oldest files while the store exceeds its budget."""
    files = []
    with os.scandir(store) as entries:
        for entry in entries:
            if entry.path != newest:
                st = entry.stat()
                files.append((st.st_mtime_ns, st.st_size, entry.path))
    held = os.stat(newest).st_size
    for _, nbytes, path in sorted(files, reverse=True):
        held += nbytes
        if held > _STORE_BYTES:
            os.unlink(path)


def _build_plain_table(mesh: Mesh, alpha: float) -> np.ndarray:
    """Packed product-integration table acting on plain samples.

    Each row block is filled in groups of rows whose temporaries cover
    about ``_BLOCK_BYTES``.  A group evaluates its cells' kernel moments
    densely, in place; only the few cells next to each row's node
    (``_pow_diffs``' far ones) and past it are handled apart, so it moves
    no gathered copies of its majority.
    """
    X = mesh.offsets
    n = mesh.n
    # the moments below take powers alpha + 1 of distances up to the span
    if (alpha + 1.0) * math.log(X[-1]) >= math.log(sys.float_info.max):
        raise DomainError(
            f"a psi-span of {float(X[-1])!r} is too wide for an integral of order {alpha!r}: "
            "span**(alpha + 1) overflows double precision"
        )
    ga = gamma_fn(alpha)
    packed = np.zeros(_packed_size(n))
    for (b0, b1), block in zip(_block_bounds(n), _blocks(packed, n)):
        step = max(1, _BLOCK_BYTES // (8 * b1))
        for r0 in range(b0, b1, step):
            r1 = min(r0 + step, b1)
            m = r1 - 1
            if m == 0:
                continue
            h = X[1:r1] - X[:m]
            A = X[r0:r1, None] - X[:m]
            B = X[r0:r1, None] - X[1:r1]
            # from cell r0 on, a row meets cells past its own node, which it does
            # not read: the stand-ins A = 1, B = 1/2 keep them finite, and their
            # moments are dropped below
            past = np.arange(r0, m) >= np.arange(r0, r1)[:, None]
            np.maximum(B[:, r0:], 0.0, out=B[:, r0:])
            np.copyto(A[:, r0:], 1.0, where=past)
            np.copyto(B[:, r0:], 0.5, where=past)
            d0, d1 = _pow_diffs(B, A, (alpha, alpha + 1.0))
            d0 /= alpha
            d1 /= alpha + 1.0
            # one-sided first moments of the kernel over each cell; they sum to h * d0
            B *= d0
            np.subtract(d1, B, out=B)
            B /= h
            w_left = np.maximum(B, 0.0, out=B)
            A *= d0
            A -= d1
            A /= h
            w_right = np.maximum(A, 0.0, out=A)
            np.copyto(w_left[:, r0:], 0.0, where=past)
            np.copyto(w_right[:, r0:], 0.0, where=past)
            # entry j takes cell j's left moment and cell j - 1's right one
            w_left[:, 1:] += w_right[:, :-1]
            np.divide(w_left, ga, out=block[r0 - b0:r1 - b0, :m])
            np.divide(w_right[:, -1], ga, out=block[r0 - b0:r1 - b0, m])
    return packed


def _build_weighted_table(mesh: Mesh, alpha: float, gamma_u: float) -> np.ndarray:
    """Packed table acting on the stored values of data with weight ``1 - gamma_u``.

    Every cell is integrated against the basis
    ``(x - x0)**(g_u - 1) * {1, linear}``, so the rule is exact for the
    singular kernel times any piecewise-linear stored factor.  A cell whose
    two singular points, ``x0`` and the evaluation node ``X``, both lie two
    cell widths or more away has a smooth integrand and gets its two hat
    moments from the rule of ``_GL_RULES`` with the fewest nodes that its
    nearer singular point allows: 8 nodes from 2 widths, 4 from 33, 3 from
    170.  Those reduced separations assume kernel exponents ``alpha - 1``
    and ``g_u - 1`` of size at most 1; larger ones stretch them in
    proportion.  ``X - x_q`` is formed as ``(X - x_l) - h * s_q``, so thin
    cells far from ``X`` keep every digit.

    A cell's distance from ``x0`` fixes the last rule it may take, for every
    row; its distance from ``X`` grows down its column, so each rule holds
    on one range of rows per cell (``_first_rows``), and the rules are
    summed by ``_gauss_panel`` on tiles of about ``_BLOCK_BYTES``.  Only the
    cells next to ``x0`` and the last few before ``X`` take the moments as
    differences of incomplete beta integrals at the cell's endpoints
    (``_beta_cell_moments``), in batches whose two endpoint ratios per
    ``(row, cell)`` pair fill about ``_BLOCK_BYTES``.  An entry receives at
    most two nonzero moments, so the order in which they land does not
    change its bits, and neither do the tile and batch sizes.  The square's
    row blocks then move to the front of its buffer, which shrinks to them.
    """
    n = mesh.n
    dx = mesh.offsets
    h = dx[1:] - dx[:-1]
    packed = np.zeros((n + 1) ** 2)
    V = packed.reshape(n + 1, n + 1)
    # per rule, the reach of each cell in widths; a cell's last rule is the
    # last one it reaches from x0 (-1: none), and each rule starts on the
    # first row whose node it reaches
    stretch = max(1.0, abs(alpha - 1.0), abs(gamma_u - 1.0))
    reach = [sep * (stretch if k else 1.0) * h for k, (sep, _, _) in enumerate(_GL_RULES)]
    last = sum((dx[:-1] >= r).astype(int) for r in reach) - 1
    starts = [_first_rows(dx, r) for r in reach]

    # cell j takes incomplete beta integrals on rows j + 1 up to where its
    # first rule starts, or on every row when it is too close to x0
    counts = np.where(last >= 0, starts[0], n + 1) - np.arange(1, n + 1)
    cells = np.repeat(np.arange(n), counts)
    rows = cells + 1 + np.arange(cells.size) - np.repeat(np.cumsum(counts) - counts, counts)
    batch = max(1, _BLOCK_BYTES // 16)
    for b0 in range(0, cells.size, batch):
        ii, jj = rows[b0:b0 + batch], cells[b0:b0 + batch]
        c_left, c_right = _beta_cell_moments(dx, alpha, gamma_u, ii, jj)
        V[ii, jj] += c_left
        V[ii, jj + 1] += c_right

    # column panels as wide as a square tile of _BLOCK_BYTES, cut where the
    # last rule changes
    panel = math.isqrt(_BLOCK_BYTES // 8)
    workspace = np.empty((5, max(1, min(_BLOCK_BYTES // 8, (n + 1) * panel))))
    edges = sorted({*range(0, n, panel), *(np.flatnonzero(np.diff(last)) + 1).tolist()})
    for c0, c1 in zip(edges, edges[1:] + [n]):
        for k in range(last[c0] + 1):
            band = k < last[c0]
            stop = starts[k + 1][c0:c1] if band else np.full(c1 - c0, n + 1)
            _gauss_panel(V, dx, c0, c1, starts[k][c0:c1], stop, _GL_RULES[k],
                         alpha, gamma_u, workspace, band)
    # each block lands at or before its rows; numpy copies overlapping ones
    for (r0, r1), block in zip(_block_bounds(n), _blocks(packed, n)):
        block[...] = V[r0:r1, :r1]
    del V, block
    # no view of the buffer is left, so moving it strands none
    packed.resize(_packed_size(n), refcheck=False)
    return packed


def _gauss_panel(V, dx, c0, c1, lo, hi, rule, alpha, gamma_u, workspace, shear) -> None:
    """Add one rule's hat moments of cells ``c0 <= j < c1`` to ``V``.

    Cell ``j`` takes the rule on rows ``lo[j - c0] <= i < hi[j - c0]``.
    Tile row ``r`` holds the entries ``(r, j)``, or with ``shear`` the
    entries ``(r + j - c0, j)``, which follow the diagonal: a band of rows
    at a near-constant distance below it, as every rule but a cell's last
    one takes, then fills its tiles with few entries outside it.  The rows
    are cut into tiles whose entries fill one row of ``workspace``; rows
    where every cell takes the rule need no mask, and the tiles above and
    below them drop the entries outside each cell's range.  A band that
    reaches the last row of ``V`` is tiled without shear.
    """
    _, nodes, weights = rule
    n1 = V.shape[0]
    width = c1 - c0
    if shear and int((hi - np.arange(width)).max()) + width - 2 >= n1:
        shear = False
    if shear:
        lo = lo - np.arange(width)
        hi = hi - np.arange(width)
    xl = dx[c0:c1]
    h = dx[c0 + 1:c1 + 1] - xl
    offs = h * nodes[:, None]
    # x_q**(g_u - 1) * w_q * h / gamma(alpha), one factor per node and cell
    dens = np.power(xl + offs, gamma_u - 1.0)
    dens *= weights[:, None] * (h / gamma_fn(alpha))
    core0, core1 = int(lo.max()), int(hi.min())
    top, bottom = int(lo.min()), int(hi.max())
    if core0 < core1:
        pieces = ((top, core0, True), (core0, core1, False), (core1, bottom, True))
    else:
        pieces = ((top, bottom, True),)
    step = max(1, workspace.shape[1] // width)
    flat = V.reshape(-1)
    # element strides of the tile's rows and cells in dx and in V
    x_step, v_step = (1, n1 + 1) if shear else (0, 1)
    for p0, p1, masked in pieces:
        for r0 in range(p0, p1, step):
            rows = min(step, p1 - r0)
            gap, f, t, acc_left, acc_right = (
                w[: rows * width].reshape(rows, width) for w in workspace
            )
            X = np.lib.stride_tricks.as_strided(
                dx[r0:], (rows, width), (dx.itemsize, x_step * dx.itemsize), writeable=False
            )
            np.subtract(X, xl, out=gap)
            if masked:
                # rows above the panel's diagonal get a positive stand-in
                np.maximum(gap, h, out=gap)
            acc_left.fill(0.0)
            acc_right.fill(0.0)
            for q, s_q in enumerate(nodes):
                np.subtract(gap, offs[q], out=f)
                np.log(f, out=f)
                f *= alpha - 1.0
                np.exp(f, out=f)
                f *= dens[q]
                np.multiply(f, 1.0 - s_q, out=t)
                acc_left += t
                f *= s_q
                acc_right += f
            if masked:
                r = np.arange(r0, r0 + rows)[:, None]
                inside = (r >= lo) & (r < hi)
                acc_left *= inside
                acc_right *= inside
            # cell j's left moment lands on entry j of its row, the right
            # one on entry j + 1
            for acc, col in ((acc_left, c0), (acc_right, c0 + 1)):
                entries = np.lib.stride_tricks.as_strided(
                    flat[r0 * n1 + col:], (rows, width), (n1 * flat.itemsize, v_step * flat.itemsize)
                )
                entries += acc


def _first_rows(dx: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """Per cell ``j``, the first row ``i`` with ``dx[i] - dx[j+1] >= reach[j]``.

    ``len(dx)`` where no row qualifies.  The test is monotone in ``i``, so a
    search on ``dx[j+1] + reach[j]`` lands within a step of its first row.
    """
    right = dx[1:]
    s = np.searchsorted(dx, right + reach)
    while True:
        back = (s > 0) & (dx[np.maximum(s - 1, 0)] - right >= reach)
        fwd = (s < dx.size) & ~(dx[np.minimum(s, dx.size - 1)] - right >= reach)
        if not (back.any() or fwd.any()):
            return s
        s = s - back + fwd


def _beta_cell_moments(
    dx: np.ndarray, alpha: float, gamma_u: float, rows: np.ndarray, cells: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Hat moments of the cells ``cells`` seen from the nodes ``rows``.

    With ``theta = x / X`` both moments of a cell are
    ``X**(alpha + g_u - 1) / gamma_fn(alpha)`` times a combination of the
    differences of ``B(theta; g_u, alpha)`` and ``B(theta; g_u + 1, alpha)``
    across the cell.  On thin cells far from ``X`` that combination cancels
    to a few digits, which is why the table sums those by Gauss-Legendre.
    """
    X = dx[rows]
    xl = dx[cells]
    xr = dx[cells + 1]
    k = rows.size
    theta = np.concatenate([xl / X, xr / X])
    B0 = _lower_beta_many(gamma_u, alpha, theta)
    B1 = _lower_beta_many(gamma_u + 1.0, alpha, theta)
    dB0 = B0[k:] - B0[:k]
    dB1 = B1[k:] - B1[:k]
    p = np.power(X, alpha + gamma_u - 1.0) / gamma_fn(alpha)
    h = xr - xl
    c_left = np.maximum(p * (xr * dB0 - X * dB1) / h, 0.0)
    c_right = np.maximum(p * (X * dB1 - xl * dB0) / h, 0.0)
    return c_left, c_right


# ---------------------------------------------------------------------------
# derivative composition and its residuals

def hilfer_derivative(u: GridFunction, order: FracOrder) -> GridFunction:
    """Two-sided composition derivative of order ``(alpha, beta)``.

    Accepts plain samples, or data stored with weight ``1 - gamma`` (the
    inner integral then uses its corrected first cell).  The result is a
    plain grid function.  This operator is diagnostic: the solver never
    inverts through it, only the residual helpers do.
    """
    inner = (1.0 - order.beta) * (1.0 - order.alpha)
    outer = order.beta * (1.0 - order.alpha)
    mesh = u.mesh
    if u.weight_exp != 0.0:
        if abs((1.0 - u.weight_exp) - order.gamma) > 1e-12:
            raise ContractError(
                f"weighted input has weight {u.weight_exp!r}, but the order "
                f"implies 1 - gamma = {order.weight!r}"
            )
        if inner == 0.0:
            raise ContractError("weighted input needs a positive inner order")
    if mesh.n < 2:
        raise ContractError("derivative stencils need at least 3 nodes")
    if inner > 0.0:
        w1 = FracIntegralOperator(mesh, inner).apply(u).values
    else:
        w1 = u.values
    d = np.gradient(w1, mesh.offsets, edge_order=2)
    if outer > 0.0:
        out = FracIntegralOperator(mesh, outer).apply(GridFunction(mesh, d, 0.0))
        return out
    return GridFunction(mesh, d, 0.0)


#: Fraction of the transformed span excluded next to the left endpoint when
#: measuring derivative-composition residuals.  The composition differences
#: through a weakly singular layer whose node-relative errors are
#: self-similar under grading, so no metric that includes the layer itself
#: can converge; the residuals are pointwise statements on any region
#: bounded away from the endpoint.
_EDGE_TRIM = 0.05


def _interior_lo(mesh: Mesh) -> int:
    dx = mesh.offsets
    lo = int(np.searchsorted(dx, _EDGE_TRIM * dx[-1]))
    return max(lo, 1)


def _weighted_residual_max(mesh: Mesh, res: np.ndarray, order: FracOrder) -> float:
    dx = mesh.offsets
    w = order.weight
    sl = slice(_interior_lo(mesh), None)
    return float(np.max(np.power(dx[sl], w) * np.abs(res[sl])))


def integrate_derivative_residual(u: GridFunction, order: FracOrder) -> float:
    """Residual of: integral(order) of derivative(order) of ``u`` against
    ``u`` minus its initial-value layer, in the weighted sup norm.

    ``u`` holds plain samples.  The initial layer is
    ``(x - x0)**(gamma-1) / gamma_fn(gamma)`` times the limit at ``a`` of
    the inner integral of ``u``: zero for continuous data with
    ``gamma < 1`` and ``u(a)`` when ``gamma = 1``.  The residual is
    measured over nodes at least 5 percent of the transformed span away
    from ``a``; next to the endpoint the discrete composition differences
    through the singular layer and has no pointwise limit.
    """
    if u.weight_exp != 0.0:
        raise ContractError("integrate_derivative_residual expects plain samples")
    mesh = u.mesh
    hd = hilfer_derivative(u, order)
    lhs = FracIntegralOperator(mesh, order.alpha).apply(hd).values
    if order.gamma == 1.0:
        res = lhs - (u.values - u.values[0])
    else:
        res = lhs - u.values
    res[0] = 0.0
    return _weighted_residual_max(mesh, res, order)


def differentiate_integral_residual(v: GridFunction, order: FracOrder) -> float:
    """Residual of: derivative(order) of integral(alpha) of ``v`` against ``v``.

    Measured in the weighted sup norm over nodes at least 5 percent of the
    transformed span away from ``a`` (see ``integrate_derivative_residual``).
    """
    if v.weight_exp != 0.0:
        raise ContractError("differentiate_integral_residual expects plain samples")
    mesh = v.mesh
    w = FracIntegralOperator(mesh, order.alpha).apply(v)
    hd = hilfer_derivative(w, order).values
    res = hd - v.values
    return _weighted_residual_max(mesh, res, order)


def kernel_null_residual(mesh: Mesh, order: FracOrder) -> float:
    """Weighted residual of the derivative on its own kernel function.

    The function ``(psi(t) - psi(a))**(gamma-1)`` is annihilated by the
    derivative; this helper feeds it through the discrete composition and
    reports the max weighted magnitude over the trimmed interior (at least
    5 percent of the transformed span away from ``a``).

    The weighted quadrature is exact for this data, so what remains is
    rounding noise amplified by differencing across the thin first cells
    and damped again by the outer integral; the suite bounds it by a
    floor well above that noise rather than demanding monotone decrease.
    """
    u = GridFunction(mesh, np.ones(mesh.n + 1), 1.0 - order.gamma)
    hd = hilfer_derivative(u, order).values
    return _weighted_residual_max(mesh, hd, order)


# ---------------------------------------------------------------------------
# integral-inequality bound

_GRONWALL_SERIES_TOL = 1e-14
_GRONWALL_MAX_TERMS = 400


def gronwall_bound(v: GridFunction, g: GridFunction, alpha: float) -> GridFunction:
    """Nodewise upper bound for ``u`` satisfying
    ``u(t) <= v(t) + g(t) * int_a^t psi'(s) (psi(t)-psi(s))**(alpha-1) u(s) ds``.

    This is the psi-Gronwall lemma (Sousa & Capelas de Oliveira, arXiv
    1709.03634): ``g`` multiplies the raw kernel integral, which is
    ``g * gamma_fn(alpha) * I[alpha] u``, not ``g * I[alpha] u``.  For
    ``u = 1 + 0.5 * I[1/2] u`` pass ``g = 0.5 / gamma_fn(1/2)``; with
    ``g = 0.5`` the bound at t = 1 reads 3.93, not the solution's 1.95.

    For nondecreasing ``v`` the bound is the closed form
    ``v(t) * E(g(t) * gamma_fn(alpha) * (psi(t)-psi(a))**alpha)`` with the
    Mittag-Leffler function of index ``alpha``.  Otherwise the bound is the
    kernel series ``v + sum_k (g * gamma_fn(alpha))**k * I[alpha*k] v``,
    truncated once the analytic row-sum bound of the next term drops below
    1e-14 of the current bound.

    Both ``v`` and ``g`` must be nonnegative and ``g`` nondecreasing.
    """
    if v.weight_exp != 0.0 or g.weight_exp != 0.0:
        raise ContractError("gronwall_bound expects plain samples")
    if not v.mesh.same_as(g.mesh):
        raise ContractError("v and g live on different meshes")
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha!r}")
    if np.any(v.values < 0.0) or np.any(g.values < 0.0):
        raise DomainError("gronwall_bound requires nonnegative v and g")
    gv = g.values
    tol_mono = 1e-14 * max(1.0, float(np.max(np.abs(gv))))
    if np.any(np.diff(gv) < -tol_mono):
        raise DomainError("gronwall_bound requires nondecreasing g")
    mesh = v.mesh
    dx = mesh.offsets
    ga = gamma_fn(alpha)

    v_mono_tol = 1e-14 * max(1.0, float(np.max(np.abs(v.values))))
    if not np.any(np.diff(v.values) < -v_mono_tol):
        arg = gv * ga * np.power(dx, alpha)
        return GridFunction(mesh, v.values * mittag_leffler_many(alpha, arg), 0.0)

    L = dx[-1]
    g_max = float(np.max(gv))
    v_max = float(np.max(v.values))
    bound = v.values.copy()
    log_base = math.log(g_max * ga * L ** alpha) if g_max > 0.0 else -math.inf
    for k in range(1, _GRONWALL_MAX_TERMS + 1):
        # analytic row-sum bound of term k, computed in logs to dodge overflow
        if log_base == -math.inf:
            break
        log_term_bound = k * log_base - log_gamma(alpha * k + 1.0) + math.log(max(v_max, 1e-300))
        if log_term_bound < math.log(_GRONWALL_SERIES_TOL) + math.log(max(float(np.max(bound)), 1e-300)):
            return GridFunction(mesh, bound, 0.0)
        op = FracIntegralOperator(mesh, alpha * k)
        with np.errstate(over="ignore", invalid="ignore"):
            term = np.power(gv * ga, k) * op.apply(v).values
        if not np.all(np.isfinite(term)):
            raise ConvergenceError("gronwall series overflowed double precision")
        bound += term
    else:
        raise ConvergenceError("gronwall series did not truncate; g is too large")
    return GridFunction(mesh, bound, 0.0)


# ---------------------------------------------------------------------------
# operator verification suite

#: Declared convergence orders of the residual diagnostics under mesh
#: refinement.  The composition involves numerical differentiation next to
#: a weakly singular endpoint, so first order is what the construction
#: promises; the pure-quadrature identities converge faster in practice.
DESIGN_ORDERS = {
    "integrate_derivative": 1.0,
    "differentiate_integral": 1.0,
}

#: Ceiling for the kernel annihilation residual; see
#: ``kernel_null_residual`` for why this diagnostic is graded against a
#: rounding floor instead of a decreasing trend.  Measured values sit
#: below 1e-12 across families and mesh sizes up to n = 512.
KERNEL_NULL_TOL = 1e-9

#: Checks graded by their worst residual over ``n`` against a fixed ceiling,
#: with the wording of a failure.  The weighted rule integrates the power
#: rule's data analytically, hence the rounding-level ceiling there.
_CEILINGS = {
    "constant_exactness": (1e-12, "relative error on ones {:.3e} > 1e-12"),
    "power_rule": (1e-12, "scaled error {:.3e} > 1e-12"),
    "kernel_null": (
        KERNEL_NULL_TOL,
        f"residual {{:.3e}} above ceiling {KERNEL_NULL_TOL:g}",
    ),
}

_FAMILY_SETUPS = {
    "identity": ("identity", 1.0, 0.0, 1.0),
    "logarithm": ("logarithm", 1.0, 1.0, math.e),
    "power": ("power", 2.0, 0.0, 1.0),
}


class OperatorCheckRow(NamedTuple):
    family: str
    check: str
    n: int
    residual: float


class OperatorCheckReport(NamedTuple):
    rows: tuple[OperatorCheckRow, ...]
    slopes: dict[tuple[str, str], float]
    passed: bool
    failures: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()


def _fit_slope(ns, residuals) -> float:
    """Decay rate: minus the least-squares slope of log residual on log n.

    Computed in closed form from numpy sums, like ``_matvec``, so the slope
    does not depend on the LAPACK build that ``np.polyfit`` would call.
    """
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.maximum(np.asarray(residuals, dtype=float), 1e-300))
    dx = x - x.mean()
    return float(-np.sum(dx * (y - y.mean())) / np.sum(dx * dx))


def run_operator_checks(
    families=("identity", "logarithm", "power"),
    n_list=(64, 128, 256, 512),
) -> OperatorCheckReport:
    """Run the operator oracle suite and grade it.

    Checks per reparametrisation family: exactness of the integral on
    constants, the closed-form power rule on the weighted monomial, both
    inversion identities on a smooth and on a polynomial profile, and the
    kernel annihilation residual.  The first two and the kernel residual
    must stay below their ceilings in ``_CEILINGS`` at every ``n``;
    composition residual slopes must reach at least 0.8 of their declared
    design order, and single-``n`` runs report residuals without grading
    slopes.  The order is ``(0.5, 0.5)``.
    """
    order = FracOrder(0.5, 0.5)
    rows: list[OperatorCheckRow] = []
    slopes: dict[tuple[str, str], float] = {}
    failures: list[str] = []
    notes: list[str] = []
    n_list = sorted(set(int(n) for n in n_list))
    if any(n < 4 for n in n_list):
        raise DomainError("operator checks need n >= 4")
    grading = default_grading(order)
    g = order.gamma
    ga = order.alpha

    # every family name and mesh is checked before the first table is built
    meshes: list[tuple[str, list[Mesh]]] = []
    for fam in families:
        if fam not in _FAMILY_SETUPS:
            raise DomainError(f"unknown family {fam!r}")
        kind, rho, a, T = _FAMILY_SETUPS[fam]
        meshes.append((fam, [build_mesh(PsiMap(kind, rho), a, T, n, grading) for n in n_list]))

    for fam, fam_meshes in meshes:
        per_check: dict[str, list[float]] = {}
        for mesh in fam_meshes:
            n = mesh.n
            dx = mesh.offsets

            def record(check: str, residual: float) -> None:
                rows.append(OperatorCheckRow(fam, check, n, residual))
                per_check.setdefault(check, []).append(residual)

            op = FracIntegralOperator(mesh, ga)
            exact_rows = np.power(dx, ga) / gamma_fn(ga + 1.0)
            rs = op.apply(GridFunction(mesh, np.ones(n + 1), 0.0)).values
            record(
                "constant_exactness",
                float(np.max(np.abs(rs[1:] - exact_rows[1:]) / exact_rows[1:])),
            )

            mono = GridFunction(mesh, np.ones(n + 1), 1.0 - g)
            got = op.apply(mono).values
            ref = gamma_fn(g) / gamma_fn(g + ga) * np.power(dx, g + ga - 1.0)
            # weighted-norm error, scaled by the weighted size of the result
            wres = np.power(dx[1:], 1.0 - g) * np.abs(got[1:] - ref[1:])
            scale = gamma_fn(g) / gamma_fn(g + ga) * dx[-1] ** ga
            record("power_rule", float(np.max(wres) / scale))

            u_cos = GridFunction(mesh, np.cos(mesh.nodes), 0.0)
            u_quad = GridFunction(mesh, dx * dx, 0.0)
            for tag, u in (("cos", u_cos), ("quadratic", u_quad)):
                record(
                    f"integrate_derivative_{tag}",
                    integrate_derivative_residual(u, order),
                )
                record(
                    f"differentiate_integral_{tag}",
                    differentiate_integral_residual(u, order),
                )

            record("kernel_null", kernel_null_residual(mesh, order))

        for check, residuals in per_check.items():
            if check in _CEILINGS:
                ceiling, wording = _CEILINGS[check]
                worst = max(residuals)
                if worst > ceiling:
                    failures.append(f"{fam}/{check}: " + wording.format(worst))
                continue
            if len(residuals) < 2:
                notes.append(f"{fam}/{check}: single n, slope not graded")
                continue
            slope = _fit_slope(n_list, residuals)
            slopes[(fam, check)] = slope
            base = check.rsplit("_", 1)[0]
            need = 0.8 * DESIGN_ORDERS[base]
            if slope < need:
                failures.append(
                    f"{fam}/{check}: slope {slope:.3f} below required {need:.3f}"
                )
    return OperatorCheckReport(
        rows=tuple(rows), slopes=slopes, passed=not failures,
        failures=tuple(failures), notes=tuple(notes),
    )
