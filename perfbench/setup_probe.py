"""Child process timed for setup_s: start, import invlab, generate the commands.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints one JSON object: the monotonic clock at process start and when the
first command is ready, and the speed samples taken in between.  Setup is
mostly interpreter work (unmarshalling and running module code), so it is
sampled with the pure-Python float loop that opens speed.array_kernel,
repeated here because it must run before any import; see
speed.py for how samples normalize a time span.
"""

import time

START = time.monotonic()

import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

NOMINAL_S = 0.00055  # in-handler kernel time in the fast state of a 2-vCPU Xeon VM
durations = []


def kernel():
    a, b, c, h = 0.1, 0.2, 0.3, 1e-3
    for _ in range(1500):
        k1 = b * c - 0.5 * a * a
        k2 = -a * c + 0.25 * (b + h * k1)
        k3 = a * b - c * (0.5 * h * k2)
        a, b, c = a + h * k1, b + h * k2, c + h * (k1 + 2.0 * k2 + k3) / 6.0
    return a


def sample(signum, frame):
    t = time.perf_counter()
    kernel()
    durations.append(time.perf_counter() - t)


def main():
    sample(None, None)  # at least one sample, however short the setup
    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, 0.05, 0.05)
    import run
    import workloads

    run.import_program()
    workloads.generate(sys.argv[1], int(sys.argv[2]))
    run.OUT.mkdir(exist_ok=True)
    ready = time.monotonic()
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    speed = sum(NOMINAL_S / d for d in durations) / len(durations)
    print(json.dumps({"start": START, "ready": ready, "kernel_s": sum(durations),
                      "speed": speed}))


if __name__ == "__main__":
    main()
