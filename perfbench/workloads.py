"""The four benchmark workloads.

Each workload turns a seed into a fixed, ordered list of ops during set-up
and never generates anything afterwards. An op is one instance taken
through the same public calls the matching suite or CLI verb makes; it
checks its own result and returns a token that feeds the workload digest.

Every call into the package goes through a module attribute looked up at
call time (``gt.frames.check_frame``, never a name bound at import), so the
tracer's wrappers and the self-tests' planted stubs see every call.

Size mixes are fixed: every size class has a quota, and set-up walks the
package's generators over a range of indices of the class's own until the
quota is met. Every seed therefore runs the same number of ops of each size
class; quotas are chosen so that the median and the 90th percentile of
per-op latency fall inside a large class rather than between two, which
keeps them comparable across seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import graded_topos as gt
import graded_topos.cli
import graded_topos.generators
import graded_topos.logic.semantics
import graded_topos.logic.syntax
import graded_topos.serialization

ROOT = Path(__file__).resolve().parent.parent
INVALID_DIR = ROOT / "tests" / "fixtures" / "invalid"

# The invalid corpus the frames and files workloads replay, pinned by name
# so that fixtures added later do not change the op mix. "schema" files fail
# at load time and only the files workload (exit code 2) can use them.
INVALID_FILES = (
    "frame_antisymmetry.json",
    "frame_empty_join.json",
    "frame_meet_distribution.json",
    "frame_meet_semilattice.json",
    "frame_nontotal_meet.json",
    "frame_reflexivity.json",
    "frame_transitivity.json",
    "interp_nontotal_predicate.json",
    "space_missing_bottom.json",
    "space_missing_intersection.json",
    "space_missing_union.json",
    "system_empty_join.json",
    "system_modus_ponens.json",
    "system_top_grade.json",
)

POOL4 = (Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1))
POOL5 = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
SCAN_LIMIT = 4000  # generator indices one size class may walk

# Set-up calls tick() between its small steps. The benchmark points it at a
# calibration.Meter, so that set-up time is scaled like op time.
tick: Callable[[], None] = lambda: None


class OpFailed(Exception):
    """An op's result disagreed with what the op expected."""


class ExitMismatch(OpFailed):
    """A CLI request exited with another code than expected."""


@dataclass
class Op:
    label: str  # size class, for the mix report
    run: Callable[[], str]  # returns a digest token, raises OpFailed on a wrong result


@dataclass
class Workload:
    ops: list[Op]
    mix: dict[str, int] = field(default_factory=dict)  # ops per size class

    def __post_init__(self) -> None:
        for op in self.ops:
            self.mix[op.label] = self.mix.get(op.label, 0) + 1


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise OpFailed(message)


def verdict(violation) -> str:
    return "ok" if violation is None else f"{violation.check}/{violation.clause}"


def select(quotas: dict[str, int], draw: Callable[[str, int], tuple[str | None, object]]) -> list:
    """Instances for each size class in turn. Class k walks generator indices
    k * SCAN_LIMIT, k * SCAN_LIMIT + 1, ... and keeps an instance when
    draw(label, index) reports it in that class, until its quota is met."""
    chosen = []
    for k, (label, quota) in enumerate(quotas.items()):
        found = 0
        for index in range(k * SCAN_LIMIT, (k + 1) * SCAN_LIMIT):
            tick()
            got, instance = draw(label, index)
            if got == label:
                chosen.append((label, instance))
                found += 1
                if found == quota:
                    break
        else:
            raise RuntimeError(f"class {label} has {found} of {quota} instances "
                               f"after {SCAN_LIMIT} indices")
    return chosen


def load_manifest() -> dict:
    return json.loads((INVALID_DIR / "manifest.json").read_text())


# ---------------------------------------------------------------------------
# sequents: the nine Theorem 2 laws over generated interpretations

# class D<|D|>-v<free variables of the pool, at least 1>
SEQUENT_QUOTAS = {"D1-v1": 12, "D1-v2": 18, "D2-v1": 15, "D2-v2": 30, "D3-v1": 15, "D3-v2": 30}


def logic_instance(cfg, index: int) -> tuple[str, tuple]:
    interp = gt.generators.generate_random_interpretation(cfg, index)
    pool = gt.generators.generate_formula_pool(cfg, index, interp)
    variables = frozenset().union(*(gt.logic.syntax.free_variables(f) for f in pool))
    return f"D{len(interp.domain)}-v{max(1, len(variables))}", (interp, pool)


def sequents(seed: int, workdir: Path) -> Workload:
    cfg = gt.generators.GeneratorConfig(seed=seed)
    ops = []
    for label, (interp, pool) in select(SEQUENT_QUOTAS, lambda label, i: logic_instance(cfg, i)):

        def run(interp=interp, pool=pool) -> str:
            laws = gt.logic.semantics.theorem2_suite(interp, pool)
            expect(len(laws) == 9, f"{len(laws)} laws reported")
            bad = [law.name for law in laws if not law.ok]
            expect(not bad, f"laws failed: {bad}")
            # the laws hold for any evaluator that is merely consistent, so the
            # digest also pins the grades of the sequents between neighbours
            grades = [gt.logic.semantics.sequent_grade(interp, pool[i], pool[(i + 1) % len(pool)])
                      for i in range(len(pool))]
            return ";".join(f"{law.name}={law.ok}" for law in laws) + "|" + ",".join(
                gt.format_grade(g) for g in grades)

        ops.append(Op(label, run))
    return Workload(ops)


# ---------------------------------------------------------------------------
# frames: topology closure, frame and system checkers, valid and invalid

# class n<opens>, or n<opens>-p<points>; n15 is above the subset cap of 12.
# The median op falls in n6-p4: with the point count fixed, its cost varies
# little from seed to seed, so latency_p50_ms does too.
FRAME_QUOTAS = {"n3-5": 12, "n6-p4": 28, "n7": 10, "n8": 8, "n9": 10, "n10": 2, "n11": 1, "n15": 2}
INVALID_SYSTEM_QUOTAS = {"n4": 9, "n6": 9}


def join_irreducibles(space) -> list:
    """Opens that are not the union of the opens strictly below them; their
    closure under unions and intersections is the whole topology."""
    out = []
    for t in space.opens:
        if not any(t.grades):
            continue  # the empty open; every other open has it below
        below = [s for s in space.opens
                 if s != t and all(a <= b for a, b in zip(s.grades, t.grades))]
        if gt.fuzzy_sets.union(below).grades != t.grades:
            out.append(t)
    return out


def rich_config(seed: int, max_points: int, grades: tuple) -> "gt.GeneratorConfig":
    return gt.generators.GeneratorConfig(seed=seed, max_points=max_points, max_generators=4,
                                         grade_pool=gt.GradeSet(grades))


def space_of_size(cfg, label: str, index: int) -> tuple[str, object]:
    """A generated space aimed at the class's number of opens: label n<k>
    asks for exactly k, n<lo>-<hi> for lo to hi. A suffix -p<m> also asks
    for exactly m points."""
    opens, _, points = label.partition("-p")
    lo, _, hi = opens[1:].partition("-")
    space = gt.generators.generate_random_space(cfg, index, max_opens=int(hi or lo),
                                                min_opens=int(lo))
    n = len(space)
    got = opens if int(lo) <= n <= int(hi or lo) else f"n{n}"
    return (f"{got}-p{len(space.universe)}" if points else got), space


def frames(seed: int, workdir: Path) -> Workload:
    cfg = rich_config(seed, 5, POOL5)
    ops = []
    for label, space in select(FRAME_QUOTAS, lambda label, i: space_of_size(cfg, label, i)):
        tick()
        generators = join_irreducibles(space)

        def run(space=space, generators=generators) -> str:
            closed = gt.spaces.generate_topology(space.universe, generators)
            expect(closed.opens == space.opens, "closure differs from the generated space")
            frame = gt.frames.frame_from_space(closed)
            expect(gt.frames.check_frame(frame) is None, "valid frame rejected")
            system = gt.functors.j_object(closed)
            expect(gt.systems.check_system(system) is None, "valid system rejected")
            identity = gt.fuzzy_sets.PointMap.identity(closed.universe)
            morphism = gt.functors.j_morphism(identity, closed, closed)
            expect(gt.systems.check_system_morphism(morphism) is None, "identity morphism rejected")
            extent = gt.functors.ext_object(system)
            expect(extent.opens == closed.opens, "extent space differs from the space")
            return f"{len(closed)}:ok"

        ops.append(Op(f"valid-{label}", run))

    def invalid_system(label: str, index: int) -> tuple[str, object]:
        # generate_random_system draws exactly this space, so a miss is cheap
        n = int(label[1:])
        size = len(gt.generators.generate_random_space(cfg, index, max_opens=n))
        if size != n:
            return f"n{size}", None
        return label, gt.generators.generate_random_system(cfg, index, invalid=True, max_opens=n)

    for label, system in select(INVALID_SYSTEM_QUOTAS, invalid_system):
        ops.append(Op(f"invalid-{label}", _system_op(system, "clause 2")))

    manifest = load_manifest()
    for name in INVALID_FILES:
        entry = manifest[name]
        if entry["clause"] == "schema" or entry["kind"] not in ("frame", "system"):
            continue
        path = INVALID_DIR / name
        if entry["kind"] == "frame":
            ops.append(Op("invalid-fixture", _frame_op(gt.serialization.load_frame(path), entry["clause"])))
        else:
            ops.append(Op("invalid-fixture", _system_op(gt.serialization.load_system(path), entry["clause"])))
    return Workload(ops)


def _frame_op(frame, clause: str) -> Callable[[], str]:
    def run() -> str:
        found = gt.frames.check_frame(frame)
        expect(found is not None and found.clause == clause,
               f"expected {clause}, checker said {verdict(found)}")
        return verdict(found)
    return run


def _system_op(system, clause: str) -> Callable[[], str]:
    def run() -> str:
        found = gt.frames.check_frame(system.frame) or gt.systems.check_system(system)
        expect(found is not None and found.clause == clause,
               f"expected {clause}, checker said {verdict(found)}")
        return verdict(found)
    return run


# ---------------------------------------------------------------------------
# homs: hom enumeration through the fm-s and composite adjunction laws

# class n<opens>-L<grades in GradeSet.for_system>: |L|^(n-2) candidate maps.
# The four ops of 7 and 8 opens take about 60% of a pass, nearly all of it in
# enumeration. 9 opens is left out: one op of 9 opens with |L| = 3 alone takes
# 2-3 s, which would leave two passes or fewer in a 20 s run.
HOM_QUOTAS = {"n3-L3": 40, "n3-L4": 24, "n4-L3": 9, "n4-L4": 12, "n5-L3": 10,
              "n6-L3": 1, "n7-L3": 2, "n7-L4": 1, "n8-L3": 1}


def homs(seed: int, workdir: Path) -> Workload:
    configs = (rich_config(seed, 4, POOL4), rich_config(seed, 4, POOL5))

    def draw(label: str, index: int) -> tuple[str, tuple]:
        got, space = space_of_size(configs[index % 2], label.split("-")[0], index)
        system = gt.functors.j_object(space)
        values = gt.GradeSet.for_system(system)
        return f"{got}-L{len(values)}", (space, system.frame, values)

    ops = []
    for label, (space, frame, values) in select(HOM_QUOTAS, draw):

        def run(space=space, frame=frame, values=values) -> str:
            points = gt.functors.enumerate_point_homs(frame, values)
            expect(bool(points), "no homs enumerated")
            chain = gt.frames.chain_frame(values.grades)
            for p in points:
                bad = gt.frames.check_frame_hom(p.as_frame_hom(frame, chain))
                expect(bad is None, f"enumerated map is not a hom: {bad}")
            laws = (gt.functors.check_triangle_identities("fm-s", frame, values)
                    + gt.functors.check_triangle_identities("composite", space, values)
                    + gt.functors.check_naturality("fm-s", gt.frames.FrameHom.identity(frame), values))
            bad = [law.name for law in laws if not law.ok]
            expect(not bad, f"laws failed: {bad}")
            rows = ",".join("/".join(gt.format_grade(g) for g in p.values) for p in points)
            return f"{len(frame.carrier)}|{rows}|{len(laws)}"

        ops.append(Op(label, run))
    return Workload(ops)


# ---------------------------------------------------------------------------
# files: CLI requests on files written during set-up

# class n<opens>, or n<opens>-p<points> where the point count matters
FILE_SPACE_QUOTAS = {"n3": 2, "n4": 2, "n5": 2, "n6": 2, "n12-p4": 1}
FILE_HOM_FRAMES = {"n3": 2, "n4": 2}
FILE_NONSPATIAL = {"n3": 1, "n4": 1}
# p90 falls among these ops: with 24 of them it sits mid-class, where it
# moves less from seed to seed than near the top of a smaller class
FILE_THEOREM2 = {"D2-v2": 24}
FILE_INTERPS = 4
def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI request; returns (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = gt.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _request(argv: list[str], code: int, output: Path | None = None,
             expected_bytes: bytes | None = None) -> Callable[[], str]:
    def run() -> str:
        got, stdout = run_cli(argv)
        if got != code:
            raise ExitMismatch(f"{argv[0]} exited {got}, expected {code}")
        token = f"{argv[0]}:{got}"
        if output is not None:
            written = output.read_bytes()
            expect(expected_bytes is None or written == expected_bytes,
                   f"{argv[0]} {argv[1]} wrote unexpected bytes")
            token += ":" + hashlib.sha256(written).hexdigest()
        if argv[0] in ("eval", "consequence"):
            token += ":" + stdout.strip()
        elif argv[0] in ("check", "spatiality", "theorem2"):
            reports = [json.loads(line) for line in stdout.splitlines()]
            token += ":" + ",".join(f"{r['status']}/{r['witnesses'][0][0] if r['witnesses'] else ''}"
                                    for r in reports)
        return token
    return run


def _assignment_text(formula, interp, salt: int) -> str:
    variables = sorted(gt.logic.syntax.free_variables(formula))
    domain = interp.domain
    return ",".join(f"x{v}={domain[(v + salt) % len(domain)]}" for v in variables)


def files(seed: int, workdir: Path) -> Workload:
    ser = gt.serialization
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = rich_config(seed, 5, POOL5)

    ops = []
    for k, (label, space) in enumerate(select(FILE_SPACE_QUOTAS,
                                              lambda label, i: space_of_size(cfg, label, i))):
        tick()
        system = gt.functors.j_object(space)
        paths = {kind: workdir / f"{kind}{k}.json" for kind in ("space", "system", "frame")}
        ser.save_space(space, paths["space"])
        ser.save_system(system, paths["system"])
        ser.save_frame(system.frame, paths["frame"])
        wanted = {kind: path.read_bytes() for kind, path in paths.items()}
        out = {kind: workdir / f"out-{kind}{k}.json" for kind in ("space", "system", "frame")}
        ops += [
            Op(f"check-{label}", _request(["check", "space", str(paths["space"])], 0)),
            Op(f"check-{label}", _request(["check", "frame", str(paths["frame"])], 0)),
            Op(f"check-{label}", _request(["check", "system", str(paths["system"])], 0)),
            Op(f"spatiality-{label}", _request(["spatiality", str(paths["system"])], 0)),
            # round trips: each output must equal the file set-up wrote
            Op(f"functor-{label}", _request(["functor", "j", "--in", str(paths["space"]),
                                             "--out", str(out["system"])], 0,
                                            out["system"], wanted["system"])),
            Op(f"functor-{label}", _request(["functor", "ext", "--in", str(paths["system"]),
                                             "--out", str(out["space"])], 0,
                                            out["space"], wanted["space"])),
            Op(f"functor-{label}", _request(["functor", "fm", "--in", str(paths["system"]),
                                             "--out", str(out["frame"])], 0,
                                            out["frame"], wanted["frame"])),
        ]

    hom_frames = select(FILE_HOM_FRAMES, lambda label, i: space_of_size(cfg, label, i))
    for k, (label, space) in enumerate(hom_frames):
        tick()
        frame = gt.functors.j_object(space).frame
        values = gt.GradeSet.for_frame(frame)
        path, target = workdir / f"homframe{k}.json", workdir / f"out-homs{k}.json"
        reference = workdir / f"ref-homs{k}.json"
        ser.save_frame(frame, path)
        ser.save_system(gt.functors.s_object(ser.load_frame(path), values), reference)
        grades = ",".join(gt.format_grade(g) for g in values.grades)
        ops.append(Op(f"functor-s-{label}", _request(
            ["functor", "s", "--in", str(path), "--grades", grades, "--out", str(target)], 0,
            target, reference.read_bytes())))

    def nonspatial(label: str, index: int) -> tuple[str, object]:
        system = gt.generators.generate_nonspatial_system(cfg, index)
        return f"n{len(system.frame.carrier)}", system

    for k, (_, system) in enumerate(select(FILE_NONSPATIAL, nonspatial)):
        tick()
        path = workdir / f"nonspatial{k}.json"
        ser.save_system(system, path)
        ops.append(Op("spatiality-nonspatial", _request(["spatiality", str(path)], 1)))
        ops.append(Op("check-nonspatial", _request(["check", "system", str(path)], 0)))

    manifest = load_manifest()
    for name in INVALID_FILES:
        entry = manifest[name]
        path = str(INVALID_DIR / name)
        code = 2 if entry["clause"] == "schema" else 1
        if entry["kind"] == "interpretation":
            argv = ["eval", "--interp", path, "--formula", "T"]
        else:
            argv = ["check", entry["kind"], path]
        ops.append(Op("invalid-fixture", _request(argv, code)))

    logic_cfg = gt.generators.GeneratorConfig(seed=seed)
    logic = select(FILE_THEOREM2, lambda label, i: logic_instance(logic_cfg, i))
    for k, (label, (interp, pool)) in enumerate(logic):
        tick()
        interp_path, pool_path = workdir / f"interp{k}.json", workdir / f"pool{k}.json"
        ser.save_interpretation(interp, interp_path)
        ser.save_formulas(pool, pool_path)
        ops.append(Op(f"theorem2-{label}", _request(
            ["theorem2", "--interp", str(interp_path), "--pool", str(pool_path)], 0)))
        if k >= FILE_INTERPS:
            continue
        texts = [gt.logic.syntax.format_formula(f) for f in pool]
        for j, (formula, text) in enumerate(zip(pool, texts)):
            ops.append(Op("eval", _request(["eval", "--interp", str(interp_path), "--formula", text,
                                            "--assign", _assignment_text(formula, interp, j)], 0)))
        for j in range(3):
            ops.append(Op("consequence", _request(["consequence", "--interp", str(interp_path),
                                                   "--lhs", texts[j], "--rhs", texts[j + 1]], 0)))
    return Workload(ops)


WORKLOADS = {"sequents": sequents, "frames": frames, "homs": homs, "files": files}
