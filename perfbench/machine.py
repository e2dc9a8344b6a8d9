"""What the benchmark ran on: CPUs, caches, BLAS build and threads, library versions."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _l3_size() -> str | None:
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        if _read(f"{index}/level") == "3":
            return _read(f"{index}/size")
    return None


def _openblas_runtime() -> list[dict]:
    """Thread count and config string of every OpenBLAS loaded in this process."""
    maps = _read("/proc/self/maps") or ""
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    out = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        names = [f"{prefix}_get_%s{suffix}" for prefix in ("scipy_openblas", "openblas")
                 for suffix in ("64_", "")]
        name = next((n for n in names if hasattr(lib, n % "num_threads")), None)
        if name is None:
            continue
        threads, config = getattr(lib, name % "num_threads"), getattr(lib, name % "config")
        threads.restype = ctypes.c_int
        config.restype = ctypes.c_char_p
        out.append({"library": os.path.basename(path), "threads": int(threads()),
                    "config": config().decode(errors="replace")})
    return out


def machine_info() -> dict:
    import numpy
    import scipy
    import yaml

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "nproc_available": (len(os.sched_getaffinity(0))
                            if hasattr(os, "sched_getaffinity") else None),
        "cpu": _cpu_model(),
        "l3": _l3_size(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "blas_build": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": _openblas_runtime(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
        "executable": sys.executable,
    }
