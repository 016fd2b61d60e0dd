"""Shared pieces of the benchmark: outcome accounting, statistics, host record.

Every workload returns a :class:`Outcome`: how many user-facing operations
it attempted, which of them failed (raised, or returned an answer that a
check rejected), the end-to-end measurements, and -- in a traced run -- the
per-layer numbers.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Repository root: the benchmark always runs from the root of a checkout.
ROOT = Path.cwd()

#: Where runs leave their result records and span files (git-ignored).
OUT_DIR = ROOT / ".perfbench"

#: The Appalachian region the repository's quick benches use; the benchmark's
#: toy scale (smoke test) restricts every workload to it.
TOY_BBOX = (37.0, 38.5, -83.5, -81.0)


@dataclass
class Outcome:
    """What one workload run did and measured."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    wrong_answers: int = 0
    end_to_end: Dict[str, float] = field(default_factory=dict)
    named: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    def op(self, name: str, ok: bool) -> None:
        """Count one operation; ``ok=False`` records it as failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def check(self, name: str, ok: bool) -> bool:
        """Count one checked operation; a rejected answer is a failure."""
        self.attempted += 1
        if not ok:
            self.reject(name)
        return ok

    def reject(self, name: str) -> None:
        """Record a wrong answer from an operation already counted."""
        self.failures.append(name)
        self.wrong_answers += 1

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = min(max(1, math.ceil(q * len(ordered) - 1e-9)), len(ordered))
    return float(ordered[rank - 1])


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> Optional[str]:
    """The checkout's commit, or ``None`` outside a git work tree."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the program's source files (identifies the code when
    the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_record(seed: int) -> Dict[str, object]:
    """CPU, core count, load, library versions, code identity and seed."""
    import numpy
    import scipy

    return {
        "cpu_model": _cpu_model(),
        "nproc": nproc(),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _children() -> List[int]:
    """Process ids whose parent is this process (from ``/proc``)."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; the fields after it do not.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children() -> None:
    """Stop and reap every process this run started.

    Pools and the serving process are joined where they are used; what
    outlives them is ``multiprocessing``'s resource tracker, which the
    first shared-memory segment or spawned process starts and which would
    otherwise run on after this process exits. Anything else still here
    (a run that failed part-way) is terminated, then killed.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()  # closes its pipe and waits for it to exit
    for pid in _children():
        try:
            os.kill(pid, signal.SIGTERM)
            deadline = time.monotonic() + 10
            while os.waitpid(pid, os.WNOHANG)[0] == 0:
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    break
                time.sleep(0.05)
        except (ProcessLookupError, ChildProcessError):
            pass


def import_program() -> None:
    """Put the checkout's ``src`` on the path; fail if the program is absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: no program source under {src}; run from the root "
            "of a checkout\n"
        )
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
