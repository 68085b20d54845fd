#!/usr/bin/env python3
"""Online serving demo: micro-batched alignment with latency telemetry.

Builds a small synthetic workload, then shows the two faces of
``repro.serve``:

1. the **live service** -- ``Session.serve()`` returns an
   :class:`~repro.serve.service.AlignmentService`; ``submit()`` hands
   back futures while a scheduler thread coalesces requests into
   engine-sized batches (results are bit-identical to ``Session.align``);
2. the **virtual-clock replay** -- a Poisson arrival trace is drained
   deterministically, with and without micro-batching, and the latency /
   throughput telemetry of both policies is printed side by side.

Run:  python examples/serve_demo.py
"""

import numpy as np

from repro.api import LoadGenerator, ServeConfig, Session, replay
from repro.align import AlignmentTask, mutate, preset, random_sequence


def build_tasks(count: int = 48, seed: int = 17):
    rng = np.random.default_rng(seed)
    scoring = preset("map-ont", band_width=16, zdrop=120)
    tasks = []
    for t in range(count):
        ref = random_sequence(int(rng.integers(60, 260)), rng)
        query = mutate(
            ref, rng, substitution_rate=0.06, insertion_rate=0.02, deletion_rate=0.02
        )
        tasks.append(AlignmentTask(ref=ref, query=query, scoring=scoring, task_id=t))
    return tasks


def main() -> None:
    tasks = build_tasks()
    session = Session(tasks=tasks)

    # --- 1. the live service: futures in, micro-batched results out ----
    with session.serve(max_batch_size=16, max_wait_ms=2.0) as service:
        futures = [service.submit(task) for task in tasks]
        scores = [future.result().score for future in futures]
    direct = session.align()
    assert scores == direct.scores, "served scores must match Session.align"
    print(f"live service : {len(scores)} requests in "
          f"{service.telemetry.num_batches} batches "
          f"(mean occupancy {service.telemetry.mean_occupancy():.1f}); "
          "scores bit-identical to Session.align()")

    # --- 2. deterministic replay: micro-batching vs one-by-one ---------
    generator = LoadGenerator(tasks, name="demo", seed=3)
    trace = generator.poisson(rate_rps=1500.0, num_requests=96)
    config = ServeConfig(
        timing="modeled", max_batch_size=16, max_wait_ms=3.0, refill="drain"
    )
    micro = replay(trace, config, policy="microbatch")
    single = replay(trace, config.replace(max_batch_size=1), policy="batch1")

    print(f"\nreplay of {len(trace)} Poisson requests "
          f"(~{trace.offered_rate_rps:.0f} req/s offered, modeled timing):")
    for report in (micro, single):
        latency = report.telemetry["latency_ms"]
        print(f"  [{report.policy:<10}] makespan {report.makespan_ms:8.2f} ms | "
              f"throughput {report.throughput_rps:7.1f} req/s | "
              f"p50/p99 latency {latency['p50_ms']:.2f}/{latency['p99_ms']:.2f} ms | "
              f"{report.telemetry['batches']} batches")
    speedup = single.makespan_ms / micro.makespan_ms
    print(f"  micro-batching drains the same trace {speedup:.1f}x faster")


if __name__ == "__main__":
    main()
