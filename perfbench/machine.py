"""Machine and environment record attached to every benchmark result.

Everything is read-only: /proc, /sys, the interpreter, and the checkout's
files. The git commit is read from ``.git`` when the checkout has one; the
SHA-256 of ``src/muskat`` identifies the code either way.
"""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "NUMPY_MADVISE_HUGEPAGE")


def _read(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _caches() -> list[str]:
    out = []
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(d / f) for f in ("level", "type", "size"))
        if size:
            out.append(f"L{level} {kind} {size}")
    return out


def _git_commit(root: Path) -> str | None:
    head = _read(root / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(root / ".git" / ref)
    if loose:
        return loose
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(src.rglob("*.py")):
        h.update(f.relative_to(src).as_posix().encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def _blas() -> dict:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return {}
    return {k: {f: v.get(f) for f in ("name", "version", "openblas configuration")
                if f in v}
            for k, v in deps.items() if k in ("blas", "lapack")}


def record(root: Path) -> dict:
    """Machine, library and code identity; needs numpy and scipy importable."""
    import numpy as np
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "mem_total": (_read("/proc/meminfo") or "").split("\n", 1)[0],
        "loadavg": _read("/proc/loadavg"),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root / "src" / "muskat"),
    }
