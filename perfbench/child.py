"""Runs one `temporal-augmenter` command in this process, with timing probes.

    python3 perfbench/child.py <record.json> <trace 0|1> <cli arguments...>

The engine is imported from `src/` of the checkout that holds this file.
Before the command runs, one probe is installed so the benchmark can split
the process's wall time: on `optim.fit` for `train` (entry time, time inside
and samples trained) and on `optim.predict_probs` for `eval` (time inside and
rows scored).
With trace 1 the span wrappers of `tracer.py` are installed under the probe.
Every replaced function is restored before the record is written.

Times are CLOCK_MONOTONIC readings, which the parent process shares.
The record also holds the process's peak RSS (see `peak_rss_mb`).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


PROBE_TARGETS = {"train": "fit", "eval": "predict_probs"}


class Probe:
    """Timer on the one function whose time an end-to-end metric needs."""

    def __init__(self, command: str):
        self.command = command
        self.record = {"first_enter": None, "inside_s": 0.0, "samples": 0, "rows": 0}
        self._saved = None

    def install(self) -> None:
        from temporal_augmenter import optim
        attr = PROBE_TARGETS[self.command]
        original = getattr(optim, attr)
        record = self.record

        @functools.wraps(original)
        def probed(*args, **kwargs):
            enter = now()
            try:
                return original(*args, **kwargs)
            finally:
                record["inside_s"] += now() - enter
                if record["first_enter"] is None:
                    record["first_enter"] = enter
                if attr == "fit":
                    train_set, cfg = args[1], args[3]
                    record["samples"] += train_set.n * cfg.epochs
                else:
                    record["rows"] += args[1].shape[0]

        self._saved = (optim, attr, original)
        setattr(optim, attr, probed)

    def restore(self) -> None:
        if self._saved is not None:
            owner, attr, original = self._saved
            setattr(owner, attr, original)
            self._saved = None


def peak_rss_mb() -> float:
    """High-water RSS of this process's own memory, in MiB.

    `VmHWM` counts only the memory mapped since this program started.  The
    `ru_maxrss` that `wait4` reports is at least the parent's peak RSS, since
    the kernel carries the forking process's high-water mark over the exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv) -> int:
    record_path, trace, cli_args = argv[0], argv[1] == "1", argv[2:]
    from temporal_augmenter import cli
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer(clock=now)
        tracer.install()
    probe = Probe(cli_args[0])
    probe.install()
    try:
        rc = cli.main(cli_args)
    finally:
        probe.restore()
        if tracer is not None:
            tracer.restore()
    record = {"rc": rc, "probe": probe.record, "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        record["spans"] = tracer.spans
        record["counters"] = tracer.counters
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
