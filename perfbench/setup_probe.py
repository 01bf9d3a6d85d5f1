"""Time one fresh-interpreter set-up: import the package, then parse the config
or build the law, stopping before the first trial. Prints the seconds.

Usage: python3 perfbench/setup_probe.py <src-dir> '<json spec>'
where the spec is {"config": {...}} for ``run`` or {"law": {...}} for
``limit-cdf``.
"""

import json
import sys
import time


def main() -> None:
    src, spec = sys.argv[1], json.loads(sys.argv[2])
    start = time.perf_counter()
    sys.path.insert(0, src)
    from neumann_bounds import cli  # noqa: F401  (the CLI import is the cost)
    from neumann_bounds.experiments import ExperimentConfig, reference_law
    from neumann_bounds.limits import LimitLaw

    if "config" in spec:
        reference_law(ExperimentConfig.from_json(spec["config"]))
    else:
        LimitLaw.bessel_hard_edge(spec["law"]["order"], spec["law"]["quad"])
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
