"""One benchmark pass in a fresh process.

Usage: ``python3 pass_main.py SPEC_JSON RESULT_JSON T0``, with ``src`` on
``PYTHONPATH``.  ``T0`` is the parent's ``time.monotonic()`` just before it
started this process, so wall set-up time runs from process start until
``allocsim.cli`` is imported; CPU set-up time is this process's CPU time up
to the same point.  The pass then drives the CLI in-process as a closed loop,
one command after the other, capturing each command's stdout and timing it
in wall time and in CPU time.  The spec's ``commands`` may be empty: the
process then only measures set-up.

Untraced processes also sample the host's speed: a fixed calibration kernel
runs SETUP_SAMPLES times after set-up and then, from a ``SIGALRM`` interval
timer, every ``CALIBRATION_PERIOD_S`` of wall time while the commands run,
also inside long commands.  Its CPU time is left out of the commands' CPU
time.  The harness scales CPU times by these samples (see ``run.py``).
"""

import contextlib
import gc
import io
import json
import resource
import signal
import sys
import time

CALIBRATION_PERIOD_S = 0.03  # wall time between two calibration samples
SETUP_SAMPLES = 10  # calibration samples right after set-up


def calibration_kernel() -> int:
    """A fixed piece of pure-Python work, 0.75 to 1.5 ms on the baseline
    machine: function calls, a list comprehension and frozenset lookups.  Sampled next
    to allocsim's per-profile commands, its CPU time moves in proportion to
    theirs as the host's speed changes, and it shares no code with the
    program, so no program change moves it."""

    def step(a: int, b: int) -> int:
        return (a * 31 + b) & 1023

    values = list(range(64))
    members = frozenset(range(0, 64, 3))
    total = 0
    for i in range(350):
        total = step(total, i)
        total += len([v for v in values if v in members])
    return total


class Calibration:
    """CPU-time samples of ``calibration_kernel``, in ms, and the CPU time
    they took altogether."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_ns = 0
        self._busy = False

    def sample(self, *_):
        if self._busy:  # the timer fired during a sample
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()  # the program's heap must not change the sample
        t = time.process_time_ns()
        calibration_kernel()
        took = time.process_time_ns() - t
        if collecting:
            gc.enable()
        self.samples.append(took / 1e6)
        self.spent_ns += took
        self._busy = False

    def start(self):
        """Sample every CALIBRATION_PERIOD_S of wall time.  A wall-clock timer,
        because an armed process CPU timer makes Linux read the process CPU
        clock at tick resolution.  Forked pool workers keep the handler but
        not the timer."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S, CALIBRATION_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def _invoke(cli, click, args):
    """Run one command as ``allocsim ARGS`` would; return (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            cli.main(args=args, prog_name="allocsim", standalone_mode=False)
            code = 0
        except click.ClickException as exc:
            exc.show()
            code = exc.exit_code
        except click.exceptions.Exit as exc:
            code = exc.exit_code
        except Exception as exc:  # a traceback would end a real process with 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    return code, buf.getvalue()


def cpu_ns() -> int:
    """CPU time of this process plus its waited-for children (pool workers).

    Time the host's hypervisor takes from this machine (steal) is not
    counted, so CPU time moves much less than wall time on a shared host.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time_ns() + round((children.ru_utime + children.ru_stime) * 1e9)


def _peak_rss_mb():
    """Peak RSS of this process or of its largest waited-for child (a pool
    worker), in MB.  This process's own peak is read from ``VmHWM`` because
    Linux carries ``ru_maxrss`` over from the parent through fork and exec."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1])
    except OSError:
        pass
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def main():
    spec_path, result_path, t0 = sys.argv[1], sys.argv[2], float(sys.argv[3])
    import click
    from allocsim.cli import cli

    setup_s = time.monotonic() - t0
    setup_cpu_s = time.process_time()
    with open(spec_path) as fh:
        spec = json.load(fh)
    commands = spec["commands"]
    invoke = _invoke
    tracer = None
    calibration = Calibration()
    setup_calibration_ms = []
    if not spec["trace"]:  # a traced pass is not scaled; its timings stay raw
        for _ in range(SETUP_SAMPLES):
            calibration.sample()
        setup_calibration_ms, calibration.samples = calibration.samples, []
        calibration.spent_ns = 0
        calibration.start()
    else:
        import tracer as tracing

        tracer = tracing.Tracer(spec["pass_id"])
        tracer.install()
        invoke = tracer.command_wrapper(_invoke)

    ops = []
    for args in commands:
        t, c, first = time.perf_counter_ns(), cpu_ns() - calibration.spent_ns, len(calibration.samples)
        code, out = invoke(cli, click, args)
        ms = (time.perf_counter_ns() - t) / 1e6
        cpu_ms = (cpu_ns() - calibration.spent_ns - c) / 1e6
        ops.append({"ms": ms, "cpu_ms": cpu_ms, "calibration": [first, len(calibration.samples)],
                    "code": code, "bytes": len(out.encode()), "out": out})
    calibration.stop()

    result = {
        "setup_s": setup_s,
        "setup_cpu_s": setup_cpu_s,
        "wall_s": sum(op["ms"] for op in ops) / 1e3,
        "cpu_s": sum(op["cpu_ms"] for op in ops) / 1e3,
        "setup_calibration_ms": setup_calibration_ms,
        "calibration_ms": calibration.samples,
        "rss_mb": _peak_rss_mb(),
        "ops": ops,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    if tracer is not None:
        tracer.dump(spec["trace_out"])


if __name__ == "__main__":
    main()
