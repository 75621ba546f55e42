"""One fresh interpreter of the set-up measurement.

Times "first line -> ready to run the first unit": import ``repro``, load
the registries and build the scenario (or open the cache, job store and
runner on the run's root), bracketed by this child's own reference
kernel samples.  When asked, it then runs one unarmed unit and reports
``ru_maxrss`` after it.  Prints one JSON object.
"""

import json
import resource
import sys
import time

import clock
import units


def main(argv):
    src, name, seed, smoke, workdir, with_unit = argv
    sys.path.insert(0, src)
    workload = units.make_workload(name, int(seed), smoke == "1")
    ref_before = clock.ref_kernel()
    start = time.perf_counter()
    if name in units.PACKET_WORKLOADS:
        import repro.build  # noqa: F401  (imports and loads the registries)
        import repro.experiments.scenario  # noqa: F401
        imported = time.perf_counter()
        workload.ready()
    else:
        import repro.parallel  # noqa: F401
        import repro.experiments.sweeps  # noqa: F401
        imported = time.perf_counter()
        workload.prepare(workdir, populated=True)
        workload.ready()
    ready = time.perf_counter()
    ref_after = clock.ref_kernel()
    if with_unit == "1":
        workload.reference()
    print(json.dumps({
        "setup": clock.sample(ready - start, ref_before, ref_after),
        "import_s": imported - start,
        "build_s": ready - imported,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "key": repr(workload.expected),
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
