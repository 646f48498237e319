"""Reach map: the code lines under ``src/temporal_augmenter/`` that no
command of a fixed corpus runs.

    PYTHONPATH=src python tests/reach.py

The corpus is a list of ``cli.main`` invocations on small inputs written
into a temporary directory: train, eval on each split and report on the
three preset workloads (mitbih, ionosphere and tess), a generic-schema
table, a WAV tree of 8-bit mono and 16-bit stereo clips, a radar run with
``pool_size = 3`` and a ``clip_norm`` that fires, a radar run whose
validation split scales to a value that is not finite (a data error, exit
3), a radar run whose ``conv_filters = 10**15`` no machine can allocate (a
config error, exit 2), a radar run whose config names no data (a config
error, exit 2), a radar run whose relative ``data`` resolves under
``TEMPORAL_AUGMENTER_DATA``, which is set for that one invocation and then
restored, an eval of a WAV checkpoint whose ``run_config`` sets a
``target_len`` of 10**15 (a data error, exit 3), and ``gradcheck`` run as
``python -m temporal_augmenter`` runs it.  Every invocation runs in
this process under ``sys.settrace``, which is set before the package is
imported, so the lines that run at import count; the input writers, and
the train that writes that checkpoint, run untraced.

It prints, per file, how many code lines no invocation ran and which, then
the total.  A code line is one the compiler gives bytecode to.  An
invocation that does not exit with its expected code stops the map with
exit 1, since the lines it would have run are then unknown.  Uses the standard library and numpy
only; pytest does not collect it.
"""

import contextlib
import importlib.util
import io
import os
import runpy
import sys
import tempfile
import wave
from unittest import mock

PACKAGE = "temporal_augmenter"


def code_lines(path: str) -> set:
    """The line numbers of ``path`` that hold bytecode, in every code
    object the module compiles to."""
    with open(path, encoding="utf-8") as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: no source line
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


class Reach:
    """The lines that ran, per file of the package, while ``tracing``."""

    def __init__(self, files):
        self.ran = {path: set() for path in files}

    def _call(self, frame, event, arg):
        lines = self.ran.get(frame.f_code.co_filename)
        if lines is None:
            return None  # no line events for code outside the package

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local(frame, event, arg)

    @contextlib.contextmanager
    def tracing(self):
        sys.settrace(self._call)
        try:
            yield
        finally:
            sys.settrace(None)


def spans(numbers) -> str:
    """Sorted line numbers as comma-separated runs, such as '3-5, 9'."""
    runs = []
    for n in sorted(numbers):
        if runs and runs[-1][1] == n - 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def write_wav_8bit(path, samples) -> None:
    """Write float samples in [-1, 1) as 8-bit mono PCM, which is unsigned."""
    with wave.open(path, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(1)
        wf.setframerate(4000)
        wf.writeframes((samples.clip(-1.0, 127 / 128) * 128 + 128).round().astype("u1").tobytes())


def write_inputs(root: str) -> list:
    """Write the corpus's data and configs under ``root``; returns its
    invocations, each an argv list, the exit code it must return and the
    environment variables it runs with."""
    import numpy as np  # after the package, which sets the BLAS thread count first

    from temporal_augmenter import cli, model, synth
    from temporal_augmenter.tensor_core import Rng

    def path(*parts):
        return os.path.join(root, *parts)

    def config(name, text):
        with open(path(name), "w") as fh:
            fh.write(text)
        return path(name)

    synth.write_heartbeat_csv(path("beats.csv"), synth.make_heartbeat_dataset(120, Rng(1)))
    synth.write_radar_csv(path("radar.csv"), synth.make_radar_dataset(60, Rng(2)))
    synth.write_tone_corpus(path("tones"), Rng(3), clips_per_class=6)
    # column 0 alternates 0 and 1e-10, so its training std is tiny, and a
    # row that the split at seed 0 sends to validation holds 1e308 there
    far = synth.make_radar_dataset(40, Rng(1))
    far.features[:, 0, 0] = [1e-10 * (i % 2) for i in range(40)]
    far.features[[0, 3, 7], 0, 0] = 1e308
    synth.write_radar_csv(path("far.csv"), far)

    rng = Rng(4)  # a generic table, CRLF line ends and blank lines, the label second of four
    with open(path("table.csv"), "w", newline="") as fh:
        fh.write("f1,kind,f2,f3\r\n\r\n")
        for i in range(30):
            f1, f2, f3 = (repr(float(v)) for v in rng.uniform((3,)))
            fh.write(f"{f1},{('cat', 'dog', 'eel')[i % 3]},{f2},{f3}\r\n")

    for i in range(6):  # 80-frame clips, cropped to target_len
        t = np.arange(80) / 4000
        os.makedirs(path("mixed", "mono8"), exist_ok=True)
        write_wav_8bit(path("mixed", "mono8", f"c{i}.wav"), 0.8 * np.sin(2e3 * np.pi * t + i))
        stereo = np.stack([np.sin(4e3 * np.pi * t + i), np.cos(4e3 * np.pi * t)], axis=1)
        os.makedirs(path("mixed", "stereo16"), exist_ok=True)
        synth.write_wav(path("mixed", "stereo16", f"c{i}.wav"), 0.5 * stereo.ravel(), 4000,
                        channels=2)

    # a WAV checkpoint whose run_config's target_len, and its header's
    # input_timesteps, no machine can allocate: no parameter's shape reads the
    # length and standardize is off, so it loads
    short = config("short.cfg", f"task = tess\ntarget_len = 64\nstandardize = false\nepochs = 1\n"
                                f"data = {path('mixed')}\nout = {path('run-short')}\n")
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["train", "--config", short])
    net, extras, _ = model.load_checkpoint(path("run-short", "checkpoint.tackpt"))
    net.config.input_timesteps = 10**15
    extras["run_config"] = extras["run_config"].replace("target_len = 64", f"target_len = {10**15}")
    model.save_checkpoint(path("long.tackpt"), net, extras=extras)

    argv = []
    for task, data in (("mitbih", "beats.csv"), ("ionosphere", "radar.csv"), ("tess", "tones")):
        cfg = config(f"{task}.cfg", f"task = {task}\ndata = {path(data)}\nepochs = 1\n")
        run = path(f"run-{task}")
        argv.append(["train", "--config", cfg, "--out", run, "--seed", "1"])
        ckpt = os.path.join(run, "checkpoint.tackpt")
        argv += [["eval", ckpt, path(data), "--split", s] for s in ("train", "val")]
        argv.append(["eval", ckpt, path(data), "--out", path(f"eval-{task}")])
        argv.append(["report", run])
    for name, text in (
            ("custom", f"task = custom\nlabel_col = kind\ndata = {path('table.csv')}\n"
                       f"epochs = 1\nout = {path('run-custom')}\n"),
            ("mixed", f"task = tess\ntarget_len = 64\ndata = {path('mixed')}\nepochs = 1\n"
                      f"out = {path('run-mixed')}\n"),
            ("pool3", f"task = ionosphere\npool_size = 3\nclip_norm = 0.01\nepochs = 2\n"
                      f"data = {path('radar.csv')}\nout = {path('run-pool3')}\n")):
        argv.append(["train", "--config", config(f"{name}.cfg", text)])
    far = config("far.cfg", f"task = ionosphere\nseed = 0\ndata = {path('far.csv')}\n"
                            f"out = {path('run-far')}\n")
    huge = config("huge.cfg", f"task = ionosphere\nconv_filters = {10**15}\n"
                              f"data = {path('radar.csv')}\nout = {path('run-huge')}\n")
    nodata = config("nodata.cfg", f"task = ionosphere\nout = {path('run-nodata')}\n")
    rooted = config("rooted.cfg", f"task = ionosphere\ndata = radar.csv\nepochs = 1\n"
                                  f"out = {path('run-rooted')}\n")
    return [(args, 0, {}) for args in argv] + [
        (["train", "--config", far], 3, {}),
        (["train", "--config", huge], 2, {}),
        (["train", "--config", nodata], 2, {}),
        (["train", "--config", rooted], 0, {"TEMPORAL_AUGMENTER_DATA": root}),
        (["eval", path("long.tackpt"), path("mixed")], 3, {})]


def run_module(argv) -> int:
    """``python -m temporal_augmenter`` with ``argv``: its exit code."""
    saved = sys.argv
    sys.argv = [PACKAGE, *argv]
    try:
        runpy.run_module(PACKAGE, run_name="__main__")
    except SystemExit as exc:
        return exc.code
    finally:
        sys.argv = saved
    return 0


def main() -> int:
    package_dir = os.path.dirname(importlib.util.find_spec(PACKAGE).origin)
    files = sorted(os.path.join(package_dir, f) for f in os.listdir(package_dir)
                   if f.endswith(".py"))
    reach = Reach(files)
    with reach.tracing():
        from temporal_augmenter import cli
    with tempfile.TemporaryDirectory() as root:
        corpus = [(cli.main, argv, want, env) for argv, want, env in write_inputs(root)]
        corpus.append((run_module, ["gradcheck"], 0, {}))
        for run, argv, want, env in corpus:
            output = io.StringIO()
            with mock.patch.dict(os.environ, env), reach.tracing(), \
                    contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
                code = run(argv)
            if code != want:
                print(f"{' '.join(argv)} exited {code}, not {want}:\n{output.getvalue()}",
                      file=sys.stderr)
                return 1
    total = missed_total = 0
    for path in files:
        lines = code_lines(path)
        missed = lines - reach.ran[path]
        total, missed_total = total + len(lines), missed_total + len(missed)
        print(f"{os.path.basename(path)}: {len(missed)}" + (f": {spans(missed)}" if missed else ""))
    print(f"total: {missed_total} of {total} code lines not run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
