"""Record one SHA-256 per generated instance into tests/generator_digests.json.
Run from the repository root:

    PYTHONPATH=src python tests/fixtures/record_generator_digests.py

Each digest covers an instance's canonical saved bytes: a space's or a
system's file, and for a map or a chain the file of each map and each space
in turn. The instances are `generate_random_space` at the benchmark's
windows (4 and 5 points, 4- and 5-grade pools, 3-5 opens and exactly 3 to
15), valid and invalid `generate_random_system`, `generate_nonspatial_system`,
`generate_random_continuous_map` and `generate_continuous_chain`, at seeds
0-2 and a few indices each. `tests/test_generator_digests.py` draws them
again and compares; re-record only when a change of the drawn instances is
intended. The table sits outside this directory, where every `*.json` is a
structure file of the corpus.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from graded_topos.functors import GradeSet
from graded_topos.generators import (
    GeneratorConfig,
    generate_continuous_chain,
    generate_nonspatial_system,
    generate_random_continuous_map,
    generate_random_space,
    generate_random_system,
)
from graded_topos.serialization import (
    dumps_canonical,
    point_map_to_json,
    space_to_json,
    system_to_json,
)

HERE = Path(__file__).parent
DIGESTS = HERE.parent / "generator_digests.json"
SEEDS = (0, 1, 2)
POOL4 = (Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1))
POOL5 = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
# (points, pool) as the benchmark's frames, homs and files configs
RICH = (("p5-L5", 5, POOL5), ("p4-L4", 4, POOL4), ("p4-L5", 4, POOL5))
WINDOWS = ((3, 5),) + tuple((k, k) for k in range(3, 16))


def configs(seed: int) -> list[tuple[str, GeneratorConfig]]:
    """The default config and the benchmark's rich ones, named."""
    rich = [(name, GeneratorConfig(seed=seed, max_points=points, max_generators=4,
                                   grade_pool=GradeSet(pool)))
            for name, points, pool in RICH]
    return [("default", GeneratorConfig(seed=seed))] + rich


def sha(*payloads) -> str:
    h = hashlib.sha256()
    for payload in payloads:
        part = dumps_canonical(payload).encode()
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def instances() -> dict[str, str]:
    out = {}
    for seed in SEEDS:
        named = configs(seed)
        for name, cfg in named[1:]:
            for lo, hi in WINDOWS:
                for index in range(5):
                    space = generate_random_space(cfg, index, max_opens=hi, min_opens=lo)
                    out[f"space {name} n{lo}-{hi} seed{seed} i{index}"] = sha(space_to_json(space))
        for name, cfg in named:
            for index in range(5):
                key = f"{name} seed{seed} i{index}"
                out[f"space {key}"] = sha(space_to_json(generate_random_space(cfg, index)))
                for invalid in (False, True):
                    system = generate_random_system(cfg, index, invalid=invalid)
                    out[f"system invalid={invalid} {key}"] = sha(system_to_json(system))
                out[f"nonspatial {key}"] = sha(system_to_json(generate_nonspatial_system(cfg, index)))
                f, source, target = generate_random_continuous_map(cfg, index)
                out[f"map {key}"] = sha(point_map_to_json(f), space_to_json(source),
                                        space_to_json(target))
                f, g, first, middle, last = generate_continuous_chain(cfg, index)
                out[f"chain {key}"] = sha(point_map_to_json(f), point_map_to_json(g),
                                          *map(space_to_json, (first, middle, last)))
    return out


if __name__ == "__main__":
    table = instances()
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {DIGESTS}")
