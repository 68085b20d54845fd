"""Golden modeled replays: exact stamps, makespan and telemetry.

Every other replay test compares a drain with itself or checks an
invariant.  These pin the virtual-clock output of one bursty trace in
four configurations -- drain-then-form on one worker, on two workers
with a stall, a dropped and a duplicated dispatch, continuous refill
with a stall, and one request per batch -- so any change to the event
loop that moves a single dispatch or completion time shows up here.
Modeled timing makes a replay a pure function of ``(trace, config,
faults)``; the expected values below were recorded from the replay and
must only change together with a documented scheduling change.
"""

import pytest

from repro.serve import LoadGenerator, ServeConfig, replay
from repro.serve.faults import ShardFaults

from serve_workloads import make_serve_tasks

BASE = ServeConfig(timing="modeled", max_batch_size=4, max_wait_ms=2.0)

#: name -> (config, faults)
CASES = {
    "drain-w1": (BASE.replace(refill="drain"), None),
    "drain-w2-faults": (
        BASE.replace(refill="drain", workers=2),
        ShardFaults(
            stalls=((3.0, 1.5),), drops=frozenset({1}), duplicates=frozenset({3})
        ),
    ),
    "continuous-stall": (BASE, ShardFaults(stalls=((4.0, 1.0),))),
    "batch1": (BASE.replace(max_batch_size=1), None),
}


def golden_trace():
    """24 requests in two bursts (16 within ~3 ms, then 8 after a gap)."""
    generator = LoadGenerator(make_serve_tasks(), name="golden", seed=3)
    return generator.bursty(4000.0, 24, on_ms=3.0, off_ms=6.0, seed=11)


def observe(name):
    config, faults = CASES[name]
    report = replay(golden_trace(), config, faults=faults)
    return {
        "requests": [
            (request.dispatch_ms, request.completion_ms, request.batch_occupancy)
            for request in report.requests
        ],
        "makespan_ms": report.makespan_ms,
        "telemetry": report.telemetry,
    }


# fmt: off
EXPECTED = {
    'batch1': {
        'requests': [
            (0.0, 0.9300000000000003, 1), (0.9300000000000003, 1.5240000000000005, 1),
            (1.5240000000000005, 2.454000000000001, 1), (2.454000000000001, 3.624000000000002, 1),
            (3.624000000000002, 4.122000000000002, 1), (4.122000000000002, 5.244000000000002, 1),
            (5.244000000000002, 5.886000000000003, 1), (5.886000000000003, 6.336000000000003, 1),
            (6.336000000000003, 7.122000000000003, 1), (7.122000000000003, 7.668000000000004, 1),
            (7.668000000000004, 8.454000000000004, 1), (8.454000000000004, 9.384000000000004, 1),
            (9.384000000000004, 9.882000000000003, 1), (9.882000000000003, 10.956000000000003, 1),
            (10.956000000000003, 11.454000000000002, 1),
            (11.454000000000002, 12.432000000000002, 1),
            (12.432000000000002, 13.026000000000002, 1),
            (13.026000000000002, 13.860000000000001, 1),
            (13.860000000000001, 14.838000000000001, 1), (14.838000000000001, 15.624, 1),
            (15.624, 16.793999999999972, 1), (16.793999999999972, 17.72399999999995, 1),
            (17.72399999999995, 18.89399999999992, 1), (18.89399999999992, 19.967999999999893, 1),
        ],
        'makespan_ms': 19.967999999999893,
        'telemetry': {
            'schema_version': 4,
            'requests': 24,
            'batches': 24,
            'mean_batch_occupancy': 1.0,
            'batch_occupancy': {
                '1': 24,
            },
            'lane_occupancy': {
                'slices': 287,
                'mean': 1.0,
                'max': 1.0,
            },
            'refill': {
                'admitted_inflight': 0,
            },
            'admission': {
                'admitted': 0,
                'rejected': 0,
                'shed': 0,
                'retried': 0,
            },
            'faults': {
                'crashes': 0,
                'delays': 0,
                'dropped': 0,
                'duplicated': 0,
            },
            'resize': {
                'events': 0,
                'relocated': 0,
            },
            'queue_depth': {
                'mean': 5.791666666666667,
                'max': 12,
            },
            'wait_ms': {
                'count': 24,
                'mean_ms': 4.639857448752255,
                'p50_ms': 4.378900249683939,
                'p95_ms': 8.604453549071284,
                'p99_ms': 8.734829231086387,
                'max_ms': 8.734829231086387,
            },
            'latency_ms': {
                'count': 24,
                'mean_ms': 5.471857448752252,
                'p50_ms': 4.857260790233159,
                'p95_ms': 9.102453549071283,
                'p99_ms': 9.712829231086387,
                'max_ms': 9.712829231086387,
            },
        },
    },
    'continuous-stall': {
        'requests': [
            (0.4725767800900248, 1.4425767800900253, 4), (0.4725767800900248, 1.090576780090025, 4),
            (0.4725767800900248, 1.4425767800900253, 4),
            (0.4725767800900248, 1.6985767800900256, 4), (1.090576780090025, 1.3385767800900252, 4),
            (1.3385767800900252, 2.258576780090026, 4), (1.4905767800900254, 1.9065767800900257, 4),
            (1.4905767800900254, 1.6985767800900256, 4), (1.6985767800900256, 2.258576780090026, 4),
            (1.6985767800900256, 2.010576780090026, 4), (1.9065767800900257, 2.4665767800900262, 4),
            (2.010576780090026, 2.7145767800900265, 4), (2.258576780090026, 2.5225767800900263, 3),
            (2.362576780090026, 3.202576780090027, 4), (2.4665767800900262, 2.7145767800900265, 4),
            (2.7625767800900265, 3.490576780090027, 2), (10.910942592160998, 11.528942592160998, 4),
            (10.910942592160998, 11.784942592160997, 4),
            (10.910942592160998, 11.936942592160996, 4),
            (10.910942592160998, 11.728942592160998, 4),
            (11.528942592160998, 12.472942592160996, 4),
            (11.728942592160998, 12.424942592160996, 4),
            (11.784942592160997, 12.712942592160996, 4),
            (11.936942592160996, 12.760942592160996, 4),
        ],
        'makespan_ms': 12.760942592160996,
        'telemetry': {
            'schema_version': 4,
            'requests': 24,
            'batches': 2,
            'mean_batch_occupancy': 4.0,
            'batch_occupancy': {
                '4': 2,
            },
            'lane_occupancy': {
                'slices': 87,
                'mean': 0.8247126436781609,
                'max': 1.0,
            },
            'refill': {
                'admitted_inflight': 16,
            },
            'admission': {
                'admitted': 0,
                'rejected': 0,
                'shed': 0,
                'retried': 0,
            },
            'faults': {
                'crashes': 0,
                'delays': 1,
                'dropped': 0,
                'duplicated': 0,
            },
            'resize': {
                'events': 0,
                'relocated': 0,
            },
            'queue_depth': {
                'mean': 1.35,
                'max': 4,
            },
            'wait_ms': {
                'count': 24,
                'mean_ms': 0.3422228328659436,
                'p50_ms': 0.19348105275313454,
                'p95_ms': 1.171109684140589,
                'p99_ms': 1.8529740411952602,
                'max_ms': 1.8529740411952602,
            },
            'latency_ms': {
                'count': 24,
                'mean_ms': 1.030556166199277,
                'p50_ms': 0.8834260025307721,
                'p95_ms': 2.045109684140588,
                'p99_ms': 2.4709740411952605,
                'max_ms': 2.4709740411952605,
            },
        },
    },
    'drain-w1': {
        'requests': [
            (0.4725767800900248, 1.6305767800900246, 4),
            (0.4725767800900248, 1.6305767800900246, 4),
            (0.4725767800900248, 1.6305767800900246, 4),
            (0.4725767800900248, 1.6305767800900246, 4),
            (1.6305767800900246, 2.1285767800900244, 2),
            (2.1285767800900244, 3.2685767800900245, 4), (3.2685767800900245, 4.332576780090024, 4),
            (1.6305767800900246, 2.1285767800900244, 2),
            (2.1285767800900244, 3.2685767800900245, 4), (3.2685767800900245, 4.332576780090024, 4),
            (2.1285767800900244, 3.2685767800900245, 4),
            (2.1285767800900244, 3.2685767800900245, 4), (4.332576780090024, 4.816576780090024, 2),
            (3.2685767800900245, 4.332576780090024, 4), (4.332576780090024, 4.816576780090024, 2),
            (3.2685767800900245, 4.332576780090024, 4), (10.910942592160998, 11.878942592160998, 4),
            (10.910942592160998, 11.878942592160998, 4),
            (10.910942592160998, 11.878942592160998, 4),
            (10.910942592160998, 11.878942592160998, 4),
            (11.878942592160998, 13.036942592160997, 4),
            (11.878942592160998, 13.036942592160997, 4),
            (11.878942592160998, 13.036942592160997, 4),
            (11.878942592160998, 13.036942592160997, 4),
        ],
        'makespan_ms': 13.036942592160997,
        'telemetry': {
            'schema_version': 4,
            'requests': 24,
            'batches': 7,
            'mean_batch_occupancy': 3.4285714285714284,
            'batch_occupancy': {
                '2': 2,
                '4': 5,
            },
            'lane_occupancy': {
                'slices': 98,
                'mean': 0.7321428571428571,
                'max': 1.0,
            },
            'refill': {
                'admitted_inflight': 0,
            },
            'admission': {
                'admitted': 0,
                'rejected': 0,
                'shed': 0,
                'retried': 0,
            },
            'faults': {
                'crashes': 0,
                'delays': 0,
                'dropped': 0,
                'duplicated': 0,
            },
            'resize': {
                'events': 0,
                'relocated': 0,
            },
            'queue_depth': {
                'mean': 3.0,
                'max': 7,
            },
            'wait_ms': {
                'count': 24,
                'mean_ms': 0.8203894995326101,
                'p50_ms': 0.5016906777105898,
                'p95_ms': 1.9810303291613045,
                'p99_ms': 2.2674810527531326,
                'max_ms': 2.2674810527531326,
            },
            'latency_ms': {
                'count': 24,
                'mean_ms': 1.8168894995326097,
                'p50_ms': 1.6305767800900246,
                'p95_ms': 2.82097404119526,
                'p99_ms': 2.8716892853888436,
                'max_ms': 2.8716892853888436,
            },
        },
    },
    'drain-w2-faults': {
        'requests': [
            (0.4725767800900248, 1.6305767800900246, 4),
            (0.4725767800900248, 1.6305767800900246, 4),
            (0.4725767800900248, 1.6305767800900246, 4),
            (0.4725767800900248, 1.6305767800900246, 4),
            (1.4787392097668441, 2.6187392097668445, 4),
            (1.4787392097668441, 2.6187392097668445, 4),
            (1.4787392097668441, 2.6187392097668445, 4),
            (1.4787392097668441, 2.6187392097668445, 4), (1.8613546737999442, 2.809354673799944, 4),
            (1.8613546737999442, 2.809354673799944, 4), (1.8613546737999442, 2.809354673799944, 4),
            (1.8613546737999442, 2.809354673799944, 4), (2.719170768913616, 3.783170768913616, 4),
            (2.719170768913616, 3.783170768913616, 4), (2.719170768913616, 3.783170768913616, 4),
            (2.719170768913616, 3.783170768913616, 4), (10.910942592160998, 11.878942592160998, 4),
            (10.910942592160998, 11.878942592160998, 4),
            (10.910942592160998, 11.878942592160998, 4),
            (10.910942592160998, 11.878942592160998, 4),
            (11.676823898374545, 12.834823898374545, 4),
            (11.676823898374545, 12.834823898374545, 4),
            (11.676823898374545, 12.834823898374545, 4),
            (11.676823898374545, 12.834823898374545, 4),
        ],
        'makespan_ms': 12.834823898374545,
        'telemetry': {
            'schema_version': 4,
            'requests': 24,
            'batches': 6,
            'mean_batch_occupancy': 4.0,
            'batch_occupancy': {
                '4': 6,
            },
            'lane_occupancy': {
                'slices': 102,
                'mean': 0.7034313725490197,
                'max': 1.0,
            },
            'refill': {
                'admitted_inflight': 0,
            },
            'admission': {
                'admitted': 0,
                'rejected': 0,
                'shed': 0,
                'retried': 0,
            },
            'faults': {
                'crashes': 0,
                'delays': 1,
                'dropped': 1,
                'duplicated': 1,
            },
            'resize': {
                'events': 0,
                'relocated': 0,
            },
            'queue_depth': {
                'mean': 2.0,
                'max': 4,
            },
            'wait_ms': {
                'count': 24,
                'mean_ms': 0.40012543593658956,
                'p50_ms': 0.2995719839241371,
                'p95_ms': 1.171109684140589,
                'p99_ms': 1.8529740411952602,
                'max_ms': 1.8529740411952602,
            },
            'latency_ms': {
                'count': 24,
                'mean_ms': 1.472792102603256,
                'p50_ms': 1.402325862069306,
                'p95_ms': 2.139109684140589,
                'p99_ms': 2.82097404119526,
                'max_ms': 2.82097404119526,
            },
        },
    },
}
# fmt: on


@pytest.mark.parametrize("name", sorted(CASES))
def test_modeled_replay_matches_golden(name):
    observed = observe(name)
    expected = EXPECTED[name]
    assert observed["requests"] == expected["requests"]
    assert observed["makespan_ms"] == expected["makespan_ms"]
    assert observed["telemetry"] == expected["telemetry"]

