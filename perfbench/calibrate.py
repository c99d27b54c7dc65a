"""Measure how fast the machine runs while a command runs, to report times at reference speed.

The 2-core machine this benchmark was built on shares its cores, and
the same code ran up to twice as slow in some stretches as in others;
a stretch lasted from under a second to minutes.  `SpeedProbe` times a
block and samples the machine's speed with a fixed arithmetic slice of
KERNEL_ITERS steps.  While the block runs, a SIGALRM every INTERVAL_S of
wall time runs one slice in the main thread, between two bytecodes of
the timed code, and records how long it took.  BURST slices also run
right before and right after the block.  The probe's own time is taken
out of the measured interval, and the rest is multiplied by
(REF_SLICE_S / mean slice time) ** SLOWDOWN_EXPONENT.

The slices during the block are the better measure: the slices around
it miss the changes of speed within a command, and on the seed commit
they gave a per-repetition spread 2.6 to 2.8 times as large.  But a
slice during the block is only taken while the process runs nothing
else: one thread and no child process.  A program that works in threads
or child processes would otherwise slow the slice with its own work (by
holding the GIL, or by taking the cores), and its own contention would
read as a slow machine.  A block with no slice during it (it was too
short, or always had company) is scaled by the slices around it, where
the program's concurrency cannot reach.  Those read the machine 4 to 8%
faster than the slices during a serial command, so such a block comes
out 6 to 12% slower at reference speed than it would from slices
during it.

The exponent is fitted: over about 300 command runs of dim1-fermat5 and
monomial-skewed, log(command time) rose 1.46 to 1.65 times as fast as
log(slice time), because the slow stretches hurt reeshk's tuple- and
set-heavy code more than a loop that stays in registers and L1.  The
scaled times hold for code whose sensitivity to the machine's load
matches that fit; the raw times are reported next to them.

CPU time counts every thread of the process and the child processes it
has waited for.
"""
import os
import resource
import signal
import time

INTERVAL_S = 0.05
KERNEL_ITERS = 2000
BURST = 10  # slices right before and right after the block
REF_SLICE_S = 0.00015  # the slice's time in the fast stretches of a 2-core Xeon at 2.0 GHz
SLOWDOWN_EXPONENT = 1.5


def _slice() -> float:
    # integer arithmetic only: it allocates nothing the collector tracks
    start = time.perf_counter()
    x = 0
    for i in range(KERNEL_ITERS):
        x += i * i % 7
    return time.perf_counter() - start


def runs_alone() -> bool:
    """Whether this process has one thread and no child process (read from Linux /proc)."""
    try:
        tasks = os.listdir("/proc/self/task")
        if len(tasks) > 1:
            return False
        with open(f"/proc/self/task/{tasks[0]}/children") as fh:
            return not fh.read().strip()
    except OSError:
        return False


def process_cpu_s() -> float:
    """CPU time of this process's threads and of the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class SpeedProbe:
    """Context manager timing a block at reference speed.

    After the block, `wall_s`, `cpu_s` are the block's wall and CPU time
    without the probe's own, `slice_s` is the mean slice time the scale
    comes from, `during` tells whether that was taken during the block,
    and `scale` turns the times into reference-speed seconds.
    """

    def __enter__(self) -> "SpeedProbe":
        self.samples: list[float] = []
        self._spent_wall = self._spent_cpu = 0.0
        self.around = [_slice() for _ in range(BURST)]
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._wall, self._cpu = time.perf_counter(), process_cpu_s()
        return self

    def __exit__(self, *exc) -> None:
        wall, cpu = time.perf_counter() - self._wall, process_cpu_s() - self._cpu
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.wall_s = wall - self._spent_wall
        self.cpu_s = cpu - self._spent_cpu
        self.around += [_slice() for _ in range(BURST)]
        self.during = bool(self.samples)
        samples = self.samples or self.around
        self.slice_s = sum(samples) / len(samples)
        self.scale = (REF_SLICE_S / self.slice_s) ** SLOWDOWN_EXPONENT

    def _on_alarm(self, signum, frame) -> None:
        start_wall, start_cpu = time.perf_counter(), time.process_time()
        if runs_alone():
            self.samples.append(_slice())
        self._spent_wall += time.perf_counter() - start_wall
        self._spent_cpu += time.process_time() - start_cpu
