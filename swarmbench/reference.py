"""The fixed reference job that measures how fast the host is right now.

``run.py`` runs it in a fresh process before the first repetition and
after every repetition, and scales each repetition's times by the
reference times around it (see the README, *Host speed*).  It prints
the seconds its work took.

The job is a small pure-Python event loop shaped like the simulator's
hot path: a heap of timed events, dict and set updates, and short list
churn over some 40 000 live objects.  It imports nothing from ``src/``,
so no change to the simulator moves it.  Changing this file changes the
unit of every timed metric, so it must stay as it is.
"""

import heapq
import random
import time

OBJECTS = 40000
EVENTS = 180000


def work() -> None:
    rng = random.Random(1)
    objs = [{"id": i, "have": set(range(i % 7)), "nbrs": [], "x": 0.0}
            for i in range(OBJECTS)]
    heap = [(rng.random(), i) for i in range(OBJECTS)]
    heapq.heapify(heap)
    for event in range(EVENTS):
        at, i = heapq.heappop(heap)
        obj = objs[i]
        other = objs[(i * 7919 + event) % OBJECTS]
        obj["nbrs"].append(other["id"])
        if len(obj["nbrs"]) > 8:
            del obj["nbrs"][0]
        obj["x"] += at
        obj["have"].add(event & 15)
        heapq.heappush(heap, (at + rng.random(), i))


if __name__ == "__main__":
    started = time.perf_counter()
    work()
    print(repr(time.perf_counter() - started))
