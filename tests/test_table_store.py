"""The on-disk table store: hits return the bits of a fresh build, and no
failure of the store changes what a request prints or returns."""

import os
import subprocess
import sys
import warnings
import weakref
from collections import OrderedDict
from types import SimpleNamespace

import numpy as np
import pytest

from fracstab import fraccalc
from fracstab.cli import main
from fracstab.psi_space import GridFunction, PsiMap, build_mesh

from conftest import PROBLEMS, ROOT, cli_env, square_table


@pytest.fixture
def store(monkeypatch, tmp_path):
    """An empty store of this test's own, used for tables of any size, and
    an empty in-process cache."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(fraccalc, "_cache", OrderedDict())
    monkeypatch.setattr(fraccalc, "_STORE_MIN_BYTES", 0)
    return tmp_path / "fracstab" / "tables"


def _files(store):
    return sorted(p.name for p in store.iterdir()) if store.is_dir() else []


def _owner(array):
    """The object at the end of ``array``'s chain of bases."""
    while isinstance(array, np.ndarray) and array.base is not None:
        array = array.base
    return array


def _packed_doubles(table):
    """How many doubles ``table``'s blocks hold, checked to lie back to back."""
    start = end = table[0].__array_interface__["data"][0]
    for block in table:
        assert block.flags.c_contiguous and block.__array_interface__["data"][0] == end
        end += block.nbytes
    return (end - start) // 8


@pytest.mark.parametrize("n", [1, 40])
@pytest.mark.parametrize("weight_exp", [0.0, 0.25])
def test_hit_equals_fresh_build(store, n, weight_exp):
    # a = 0.5, T = 3: the mesh spans L = 2.5, not 1
    mesh = build_mesh(PsiMap("identity"), 0.5, 3.0, n, grading=2.0)
    built = fraccalc._shared_table(mesh, 0.5, weight_exp)
    assert len(_files(store)) == 1
    fraccalc._cache.clear()
    loaded = fraccalc._shared_table(mesh, 0.5, weight_exp)
    assert loaded is not built
    if weight_exp == 0.0:
        fresh = fraccalc._build_plain_table(mesh, 0.5)
    else:
        fresh = fraccalc._build_weighted_table(mesh, 0.5, 1.0 - weight_exp)
    square = square_table(fresh, n)
    bounds = fraccalc._block_bounds(n)
    buffers = []
    for (r0, r1), block, stored in zip(bounds, built, loaded, strict=True):
        assert stored.flags.writeable is False and stored.flags.aligned
        assert block.flags.writeable is False
        assert stored.dtype == fresh.dtype and np.array_equal(stored, square[r0:r1, :r1])
        assert np.array_equal(block, stored)
        buffers.append(_owner(stored))
    # a built table's blocks view the one packed buffer of _packed_size(n)
    # doubles that its build returned; a stored table reads every block of
    # a pass into one buffer, as large as the widest block
    size = fraccalc._packed_size(n)
    assert _packed_doubles(built) == size
    packed = _owner(built[0])
    assert packed.shape == (size,) and all(_owner(b) is packed for b in built)
    assert isinstance(loaded, fraccalc._StoredTable)
    assert all(b is buffers[0] for b in buffers)
    assert buffers[0].shape == (max((r1 - r0) * r1 for r0, r1 in bounds),)


def test_store_imports_neither_hashlib_nor_tempfile(guarded_requests):
    # hashlib pulls in 3.6 MB of OpenSSL (the store names files by CRC-32);
    # numpy may import tempfile itself, the store must not
    report = guarded_requests["report"]
    assert report["codes"][3:] == [0, 0]
    assert "hashlib" not in report["imported"]
    assert report["tempfile_from_numpy_only"] is True
    # one file per table: certify's lambda_phi estimate at n = 256 and the
    # solves' n = 128 table, written once and read once
    assert [name.split("-")[0] for name in guarded_requests["store_files"]] == ["128", "256"]


def test_old_npy_file_is_a_miss_and_ages_out(store, monkeypatch):
    # the container before: one .npy record of the key, zero-padded to 64
    # bytes, then the row blocks, under the same name with .npy
    n = 130
    mesh = build_mesh(PsiMap("identity"), 0.0, 1.0, n, grading=2.0)
    key = (mesh.offsets.tobytes(), 0.5, 0.0)
    packed = fraccalc._build_plain_table(mesh, 0.5)
    square = square_table(packed, n)
    name, raw = fraccalc._store_entry(key, n)
    old = store / name.replace(".tbl", ".npy")
    padded = raw + bytes(-len(raw) % 64)
    record = np.zeros((), [("key", np.uint8, (len(padded),)), ("table", float, packed.shape)])
    record["key"] = np.frombuffer(padded, np.uint8)
    record["table"] = packed
    store.mkdir(parents=True, mode=0o700)
    np.save(old, record)
    os.utime(old, (1, 1))
    assert fraccalc._load_table(key, n) is None
    # the budget holds the new file but not both, so the write evicts the old one
    monkeypatch.setattr(fraccalc, "_STORE_BYTES", old.stat().st_size + len(raw) + packed.nbytes - 1)
    table = fraccalc._shared_table(mesh, 0.5, 0.0)
    assert type(table) is tuple
    assert _files(store) == [name]
    fraccalc._cache.clear()
    loaded = fraccalc._load_table(key, n)
    assert loaded is not None and len(fraccalc._block_bounds(n)) == 3
    for (r0, r1), block, stored in zip(fraccalc._block_bounds(n), table, loaded, strict=True):
        assert np.array_equal(stored, square[r0:r1, :r1]) and np.array_equal(block, stored)


def test_stored_table_holds_its_blocks_only(store):
    n = 2048
    mesh = build_mesh(PsiMap("identity"), 0.0, 1.0, n, grading=2.0)
    fraccalc._shared_table(mesh, 0.5, 0.0)
    (name,) = _files(store)
    assert (store / name).stat().st_size <= 0.53 * 8 * (n + 1) ** 2
    # the stored table applied to ones keeps the bits of the square product
    fraccalc._cache.clear()
    ones = np.ones(n + 1)
    got = fraccalc.FracIntegralOperator(mesh, 0.5).apply(GridFunction(mesh, ones, 0.0)).values
    table = fraccalc._cache[(mesh.offsets.tobytes(), 0.5, 0.0)][0]
    assert isinstance(table, fraccalc._StoredTable)
    want = np.einsum("ij,j->i", square_table(fraccalc._build_plain_table(mesh, 0.5), n), ones)
    want[0] = 0.0
    assert np.array_equal(got, want)


# The peak is the process's own high-water mark, VmHWM: its ru_maxrss
# starts at the peak of the process that spawned it, which Linux carries
# over at exec, and pytest's is the larger.
RESIDENCY = """
import sys
import numpy as np
from fracstab import fraccalc
from fracstab.psi_space import GridFunction, PsiMap, build_mesh
def peak():
    with open("/proc/self/status") as f:
        return next(1024 * int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
mesh = build_mesh(PsiMap("identity"), 0.0, 1.0, 2048, grading=2.0)
u = GridFunction(mesh, np.cos(mesh.nodes), 0.0)
before = peak()
op = fraccalc.FracIntegralOperator(mesh, 0.5)
outs = [op.apply(u).values for _ in range(8)]
rise = peak() - before
np.save(sys.argv[1], np.array(outs))
(table, _), = fraccalc._cache.values()
print(isinstance(table, fraccalc._StoredTable), rise)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status (Linux)")
def test_stored_table_keeps_one_block_resident(store, tmp_path):
    n = 2048
    mesh = build_mesh(PsiMap("identity"), 0.0, 1.0, n, grading=2.0)
    fraccalc._shared_table(mesh, 0.5, 0.0)
    assert len(_files(store)) == 1
    outs = tmp_path / "outs.npy"
    proc = subprocess.run([sys.executable, "-c", RESIDENCY, str(outs)], env=cli_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    stored, rise = proc.stdout.split()
    # the load and each apply read the 17 MB table through one buffer of
    # its widest block (1 MiB); holding the table would raise the peak by it
    widest = 8 * max((r1 - r0) * r1 for r0, r1 in fraccalc._block_bounds(n))
    assert stored == "True" and int(rise) < 2 * widest, (rise, widest)
    got = np.load(outs)
    want = np.einsum("ij,j->i", square_table(fraccalc._build_plain_table(mesh, 0.5), n),
                     np.cos(mesh.nodes))
    want[0] = 0.0
    assert all(np.array_equal(out, want) for out in got)


def _unusable_store(monkeypatch, tmp_path):
    # the cache path is a regular file
    (tmp_path / "file").write_text("not a directory")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
    return 200


def _below_the_floor(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    return 64


def _stored(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    mesh = build_mesh(PsiMap("identity"), 0.0, 1.0, 200, grading=2.0)
    fraccalc._shared_table(mesh, 0.5, 0.0)
    fraccalc._cache.clear()
    return 200


@pytest.mark.parametrize("setup", [_below_the_floor, _unusable_store, _stored])
def test_only_stored_tables_are_read_on_every_apply(monkeypatch, tmp_path, setup):
    # a table found in the store is read from its file by every apply, to
    # the file's end, and keeps its bits; any other is held in memory
    monkeypatch.setattr(fraccalc, "_cache", OrderedDict())
    n = setup(monkeypatch, tmp_path)
    mesh = build_mesh(PsiMap("identity"), 0.0, 1.0, n, grading=2.0)
    op = fraccalc.FracIntegralOperator(mesh, 0.5)
    u = np.cos(mesh.nodes)
    want = np.einsum("ij,j->i", square_table(fraccalc._build_plain_table(mesh, 0.5), n), u)
    want[0] = 0.0
    table = fraccalc._shared_table(mesh, 0.5, 0.0)
    stored = setup is _stored
    assert isinstance(table, fraccalc._StoredTable) is stored
    assert (type(table) is tuple) is not stored
    for _ in range(3):
        if stored:
            table._file.seek(0)
        assert np.array_equal(op.apply(GridFunction(mesh, u, 0.0)).values, want)
        assert fraccalc._cache[mesh.offsets.tobytes(), 0.5, 0.0][0] is table
        if stored:
            assert table._file.tell() == os.fstat(table._file.fileno()).st_size


TRUNCATED = """
import os, sys
from fracstab import fraccalc
from fracstab.cli import main
applies = 0
def matvec(blocks, u):
    global applies
    applies += 1
    if applies == 2:
        with os.scandir(os.path.join(os.environ["XDG_CACHE_HOME"], "fracstab", "tables")) as store:
            for entry in store:
                os.truncate(entry.path, entry.stat().st_size // 2)
    return apply(blocks, u)
apply, fraccalc._matvec = fraccalc._matvec, matvec
sys.exit(main(sys.argv[1:]))
"""


def test_file_truncated_in_use_fails_the_request_in_one_line(tmp_path):
    # the first run stores the table, the second reads it and loses half of
    # the file between its first and second apply
    argv = ["solve", str(PROBLEMS / "example1.json"), "--n", "512"]
    runs = [subprocess.run([sys.executable, *script, *argv], capture_output=True, text=True,
                           timeout=120, env=cli_env(XDG_CACHE_HOME=str(tmp_path)))
            for script in (["-m", "fracstab"], ["-c", TRUNCATED])]
    assert runs[0].returncode == 0, runs[0].stderr
    proc = runs[1]
    # the short read fails the request, not the process
    assert proc.returncode == 2, proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: table store file ") and "shorter" in line
    assert proc.stdout == ""


def test_dropped_stored_table_closes_its_file(store, monkeypatch):
    mesh = build_mesh(PsiMap("identity"), 0.0, 1.0, 200, grading=2.0)
    fraccalc._shared_table(mesh, 0.5, 0.0)
    fraccalc._cache.clear()
    op = fraccalc.FracIntegralOperator(mesh, 0.5)
    op.apply(GridFunction(mesh, np.ones(mesh.n + 1), 0.0))
    ((table, _),) = fraccalc._cache.values()
    assert isinstance(table, fraccalc._StoredTable)
    file = weakref.ref(table._file)
    del table
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        # with no budget the cache keeps only the newest table, so a second
        # evicts the first, and the operator, still alive, holds no table
        monkeypatch.setattr(fraccalc, "_CACHE_BYTES", 0)
        fraccalc._shared_table(build_mesh(PsiMap("identity"), 0.0, 1.0, 64), 0.5, 0.0)
        assert len(fraccalc._cache) == 1
        assert file() is None
    assert unraisable == []
    # the operator fetches the table from the store again
    op.apply(GridFunction(mesh, np.ones(mesh.n + 1), 0.0))
    assert isinstance(fraccalc._cache[mesh.offsets.tobytes(), 0.5, 0.0][0], fraccalc._StoredTable)


COLD_WARM = """
import contextlib, io, sys
from fracstab import fraccalc
from fracstab.cli import main
builds = 0
def counted(fn):
    def wrapper(*args):
        global builds
        builds += 1
        return fn(*args)
    return wrapper
fraccalc._build_plain_table = counted(fraccalc._build_plain_table)
fraccalc._build_weighted_table = counted(fraccalc._build_weighted_table)
for i in range(1, 8):
    for argv in (["solve", f"problems/example{i}.json"], ["certify", f"problems/example{i}.json", "--json"]):
        fraccalc._cache.clear()
        assert main(argv) == 0
sys.stdout.flush()
print("builds", builds, file=sys.stderr)
"""


def test_cold_and_warm_runs_print_the_same_bytes(tmp_path):
    env = cli_env(XDG_CACHE_HOME=str(tmp_path))
    runs = [subprocess.run([sys.executable, "-c", COLD_WARM], cwd=ROOT, env=env,
                           capture_output=True, timeout=300) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    cold, warm = runs
    assert cold.stdout == warm.stdout and cold.stdout
    assert cold.stderr.splitlines()[-1] != b"builds 0"
    assert warm.stderr.splitlines()[-1] == b"builds 0"
    assert cold.stderr.splitlines()[:-1] == warm.stderr.splitlines()[:-1]


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _empty(path):
    path.write_bytes(b"")


def _appended(path):
    with open(path, "ab") as f:
        f.write(bytes(8))


def _wrong_shape(path):
    # an .npy array in place of the table
    with open(path, "wb") as f:
        np.save(f, np.zeros((3, 3)))


def _zip_archive(path):
    with open(path, "wb") as f:
        np.savez(f, table=np.zeros(3))


def _wrong_key(path):
    # one byte of the stored key, past the header: same shape, same dtype
    data = bytearray(path.read_bytes())
    data[200] ^= 1
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("damage", [_truncate, _empty, _appended, _wrong_shape, _zip_archive,
                                    _wrong_key])
def test_damaged_file_is_a_miss(store, capsys, damage):
    argv = ["solve", str(PROBLEMS / "example1.json"), "--n", "64"]
    assert main(argv) == 0
    reference = capsys.readouterr()
    (path,) = (store / name for name in _files(store))
    stored = path.read_bytes()
    damage(path)
    fraccalc._cache.clear()
    assert main(argv) == 0
    assert capsys.readouterr() == reference
    # the miss rebuilt the table and stored it again
    assert _files(store) == [path.name]
    assert path.read_bytes() == stored


def test_unusable_store_falls_back_to_memory(store, capsys, tmp_path):
    argv = ["solve", str(PROBLEMS / "example1.json"), "--n", "64"]
    assert main(argv) == 0
    reference = capsys.readouterr()
    # the cache path is a regular file
    fraccalc._cache.clear()
    (tmp_path / "fracstab").rename(tmp_path / "moved")
    (tmp_path / "fracstab").write_text("not a directory")
    assert main(argv) == 0
    assert capsys.readouterr() == reference
    # a store other users may write to is neither read nor written
    (tmp_path / "fracstab").unlink()
    (tmp_path / "moved").rename(tmp_path / "fracstab")
    os.chmod(store, 0o777)
    for name in _files(store):
        (store / name).unlink()
    fraccalc._cache.clear()
    assert main(argv) == 0
    assert capsys.readouterr() == reference
    assert _files(store) == []


def test_small_tables_skip_the_store(store, monkeypatch):
    monkeypatch.setattr(fraccalc, "_STORE_MIN_BYTES", 8 * 128**2)
    fraccalc._shared_table(build_mesh(PsiMap("identity"), 0.0, 1.0, 126), 0.5, 0.0)
    assert _files(store) == []
    fraccalc._shared_table(build_mesh(PsiMap("identity"), 0.0, 1.0, 127), 0.5, 0.0)
    assert len(_files(store)) == 1


def test_store_is_private_and_leaves_no_temporary_file(store):
    mesh = build_mesh(PsiMap("identity"), 0.0, 1.0, 16)
    fraccalc._shared_table(mesh, 0.5, 0.0)
    assert store.stat().st_mode & 0o777 == 0o700
    assert store.parent.stat().st_mode & 0o777 == 0o700
    (name,) = _files(store)
    assert name.startswith("16-") and name.endswith(".tbl")


def test_disabled_cpu_feature_writes_a_separate_entry(tmp_path):
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    enabled = [f for f in __cpu_dispatch__ if __cpu_features__[f]]
    if not enabled:
        pytest.skip("numpy dispatches to no optional CPU feature on this host")
    argv = [sys.executable, "-m", "fracstab", "solve", str(PROBLEMS / "example1.json"), "--n", "128"]
    store = tmp_path / "fracstab" / "tables"
    proc = subprocess.run(argv, env=cli_env(XDG_CACHE_HOME=str(tmp_path)), capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(_files(store)) == 1
    proc = subprocess.run(argv, capture_output=True, timeout=120, env=cli_env(
        XDG_CACHE_HOME=str(tmp_path), NPY_DISABLE_CPU_FEATURES=enabled[-1]))
    assert proc.returncode == 0, proc.stderr
    assert len(_files(store)) == 2


def _other_libc(monkeypatch):
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 0.0", raising=False)


def _other_machine(monkeypatch):
    monkeypatch.setattr(os, "uname", lambda: SimpleNamespace(machine="other"), raising=False)


def _other_python(monkeypatch):
    monkeypatch.setattr(sys, "version", sys.version + " other")


def _other_platform(monkeypatch):
    monkeypatch.setattr(sys, "platform", sys.platform + "-other")


@pytest.mark.parametrize("change", [_other_libc, _other_machine, _other_python, _other_platform])
def test_changed_build_stamp_writes_a_separate_entry(store, monkeypatch, change):
    mesh = build_mesh(PsiMap("identity"), 0.0, 1.0, 16)
    monkeypatch.setattr(fraccalc, "_stamp", None)
    fraccalc._shared_table(mesh, 0.5, 0.0)
    assert len(_files(store)) == 1
    change(monkeypatch)
    monkeypatch.setattr(fraccalc, "_stamp", None)
    fraccalc._cache.clear()
    fraccalc._shared_table(mesh, 0.5, 0.0)
    assert len(_files(store)) == 2


def test_file_is_synced_before_it_is_named(store, monkeypatch):
    calls = []

    def logged(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(os, "fsync", logged("fsync", os.fsync))
    monkeypatch.setattr(os, "replace", logged("replace", os.replace))
    fraccalc._shared_table(build_mesh(PsiMap("identity"), 0.0, 1.0, 16), 0.5, 0.0)
    assert calls == ["fsync", "replace"]
    assert len(_files(store)) == 1


def test_save_failure_leaves_no_file_and_the_same_output(store, monkeypatch, capsys):
    argv = ["solve", str(PROBLEMS / "example1.json"), "--n", "64"]
    assert main(argv) == 0
    reference = capsys.readouterr()
    for name in _files(store):
        (store / name).unlink()
    fraccalc._cache.clear()
    calls = []

    def failing_fsync(fd):
        calls.append(fd)
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    assert main(argv) == 0
    assert calls and capsys.readouterr() == reference
    # neither the temporary file nor a named one is left behind
    assert _files(store) == []


def test_cache_eviction_keeps_bits_and_earlier_operators(monkeypatch):
    # in memory only, so an evicted table is built again; the cache's
    # budget holds one n = 300 table, so each new one evicts the other
    n = 300
    monkeypatch.setattr(fraccalc, "_cache", OrderedDict())
    monkeypatch.setattr(fraccalc, "_STORE_MIN_BYTES", float("inf"))
    monkeypatch.setattr(fraccalc, "_CACHE_BYTES", 8 * (n + 1) ** 2)
    first, second = (build_mesh(PsiMap("identity"), 0.0, 1.0, n, grading=g) for g in (1.0, 2.0))

    def held():
        return sum(nbytes for _, nbytes in fraccalc._cache.values())

    op = fraccalc.FracIntegralOperator(first, 0.5)
    u = GridFunction(first, np.cos(first.nodes), 0.0)
    before = op.apply(u).values
    table = fraccalc._shared_table(first, 0.5, 0.0)
    fraccalc._shared_table(second, 0.5, 0.0)
    assert len(fraccalc._cache) == 1
    assert held() <= fraccalc._CACHE_BYTES + 8 * (n + 1) ** 2
    # the operator fetches the evicted table again, built anew with its bits
    assert np.array_equal(op.apply(u).values, before)
    assert len(fraccalc._cache) == 1
    again = fraccalc._shared_table(first, 0.5, 0.0)
    assert again is not table and len(fraccalc._cache) == 1
    assert len(again) == len(table)
    assert all(np.array_equal(a, b) for a, b in zip(again, table))


def test_eviction_keeps_the_newest_file(store, monkeypatch):
    first, second = (build_mesh(PsiMap("identity"), 0.0, 1.0, n) for n in (30, 31))
    fraccalc._shared_table(first, 0.5, 0.0)
    (old,) = _files(store)
    os.utime(store / old, (1, 1))
    size = (store / old).stat().st_size
    monkeypatch.setattr(fraccalc, "_STORE_BYTES", size + 1000)
    fraccalc._shared_table(second, 0.5, 0.0)
    (kept,) = _files(store)
    assert kept.startswith("31-")
    # a table larger than the whole budget is not stored
    monkeypatch.setattr(fraccalc, "_STORE_BYTES", 1000)
    fraccalc._shared_table(build_mesh(PsiMap("identity"), 0.0, 1.0, 32), 0.5, 0.0)
    assert _files(store) == [kept]
