"""A machine-speed reference for the end-to-end times.

The benchmark shares a few cores of a host with other work, and the speed
of a core drifts by a third or more over tens of seconds. The CPU time of
a command drifts with it. To take that drift out, a reference process runs
a fixed piece of pure-Python work (a "chunk") in a loop at low priority
(nice 12), on the same CPU as the commands. It takes about 6% of that CPU,
in slices spread over each command, so it sees the core at the same speed
as the command does. A command's time in reference seconds is its CPU time
scaled by ``REFERENCE_CHUNK_S`` over the mean CPU cost of the chunks the
reference finished while the command ran: what the command would take on
a core where a chunk costs exactly ``REFERENCE_CHUNK_S``.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import random
import time

REFERENCE_CHUNK_S = 0.0006  # nominal cost of one chunk; about the median on a 2-vCPU Xeon VM
MIN_CHUNKS = 20  # chunks a measurement averages over, at the least


def _chunk(keys: list[str]) -> float:
    """Dictionary counting, float arithmetic and a sort, like the program does."""
    counts: dict[str, float] = {}
    for key in keys:
        counts[key] = counts.get(key, 0.0) + 1.0
    row = [0.0] * 400
    for j in range(1, 400):
        row[j] = math.log(1.0 + j) * row[j - 1] * 0.5 + (j - 2.5) ** 2 / 7.0
    return sum(sorted(counts.values())) + row[-1]


def _loop(state, parent: int) -> None:
    os.nice(12)
    rng = random.Random(7)
    keys = [f"w{rng.randrange(4000)}" for _ in range(1500)]
    while os.getppid() == parent:  # ends by itself if the benchmark dies
        for _ in range(16):
            _chunk(keys)
            now = time.process_time_ns()
            with state.get_lock():
                state[0] += 1
                state[1] = now


class Reference:
    """The reference process, on the CPU this process is pinned to."""

    def __enter__(self) -> "Reference":
        context = multiprocessing.get_context("fork")
        self.state = context.Array("q", 2)  # chunks finished, CPU ns at the last one
        self.process = context.Process(target=_loop, args=(self.state, os.getpid()), daemon=True)
        self.process.start()
        mark = self.reading()
        while self.reading()[0] - mark[0] < MIN_CHUNKS:  # warm up
            time.sleep(0.005)
        return self

    def __exit__(self, *exc) -> None:
        self.process.terminate()
        self.process.join()

    def reading(self) -> tuple[int, int]:
        with self.state.get_lock():
            return self.state[0], self.state[1]

    def chunk_s(self, mark: tuple[int, int]) -> float:
        """Mean CPU seconds per chunk since ``mark``.

        When a short command left the reference too few slices, this waits
        for more chunks; they run at once, since this process then sleeps.
        """
        now = self.reading()
        while now[0] - mark[0] < MIN_CHUNKS:
            time.sleep(0.001)
            now = self.reading()
        return (now[1] - mark[1]) / 1e9 / (now[0] - mark[0])

    def scale(self, cpu_s: float, mark: tuple[int, int]) -> float:
        """``cpu_s`` of work done since ``mark``, in reference seconds."""
        return cpu_s * REFERENCE_CHUNK_S / self.chunk_s(mark)
