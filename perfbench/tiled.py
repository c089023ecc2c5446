"""Deterministic tiled cases: k copies of ieee24_rts joined by tie lines.

Tile t holds buses 24*t + 1 .. 24*t + 24 (bus b of the original case
becomes 24*t + b). The tiles sit row by row on a square grid,
ceil(sqrt(k)) tiles wide. The tile nearest the centre of the grid keeps
bus 13 as the reference. In every other tile bus 13 becomes a PV bus whose
units are dispatched at the solved slack output of the single-tile base
case, so each tile balances its own load.

Each pair of side-by-side tiles is joined by two tie lines. The seed
picks, per pair, two distinct 230-kV buses (11-24); each tie joins that
bus in one tile to the same bus in the other, so its ends sit at nearly
the same voltage and angle and it carries little power. Ties between
different buses drive circulating flows of several hundred MW, and the
flat-start Newton solve of the 100-tile case then fails for some seeds.

At a flat start no losses flow yet, so every other tile shows a surplus
equal to its losses (about 51 MW), and the first Newton step routes all of
it to the reference bus. One tie of each pair next to the reference tile
therefore lands on bus 13 itself; without that, the step overshoots by
more than 100 degrees and the 100-tile solve diverges for about one seed
in eight.

Run as a script to check that the tiled cases parse, validate clean and
converge for a range of seeds:

    python3 perfbench/tiled.py --tiles 10 100 --seeds 0-9
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TILE_BUSES = 24
REFERENCE_BUS = 13
TIE_BUSES = range(11, 25)  # the 230-kV part of ieee24_rts
TIES_PER_PAIR = 2
# r, x, b, rate of the tie lines: the 230-kV line 15-16 of ieee24_rts
TIE_LINE = (0.0022, 0.0173, 0.0364, 500.0)


def _num(value: float) -> str:
    return format(value, ".12g")


def reference_dispatch(base) -> dict[int, float]:
    """Solved real output of each unit at the reference bus of one tile."""
    from ecogrid.powerflow import solve

    solution = solve(base)
    if not solution.converged:
        raise RuntimeError("ieee24_rts base case did not converge")
    return {
        g.id: round(solution.generator_P[g.id], 4)
        for g in base.generators
        if g.bus == REFERENCE_BUS and g.in_service
    }


def adjacent_pairs(tiles: int) -> list[tuple[int, int]]:
    """Side-by-side tile pairs of the grid layout, in a fixed order."""
    width = math.isqrt(tiles - 1) + 1
    pairs = []
    for t in range(tiles):
        if (t + 1) % width and t + 1 < tiles:
            pairs.append((t, t + 1))
        if t + width < tiles:
            pairs.append((t, t + width))
    return pairs


def tiled_case_text(base, tiles: int, seed: int, dispatch: dict[int, float]) -> str:
    """MATPOWER text for `tiles` copies of `base` (a parsed ieee24_rts)."""
    if tiles < 1:
        raise ValueError(f"tiles must be >= 1, got {tiles}")
    kind_code = {"slack": 3, "PV": 2, "PQ": 1}
    width = math.isqrt(tiles - 1) + 1
    reference = (tiles - 1) // width // 2 * width + min(width, tiles) // 2
    rng = random.Random(seed)
    bus_rows, gen_rows, branch_rows = [], [], []
    for t in range(tiles):
        off = TILE_BUSES * t
        for b in base.buses:
            code = kind_code[b.kind.value]
            if t != reference and b.id == REFERENCE_BUS:
                code = kind_code["PV"]
            bus_rows.append([b.id + off, code, b.load_P, b.load_Q, b.shunt_G, b.shunt_B, 1,
                             b.voltage_magnitude_setpoint, 0, b.base_kV, 1, b.v_max, b.v_min])
        for g in base.generators:
            p_out = dispatch[g.id] if t != reference and g.id in dispatch else g.P_out
            gen_rows.append([g.bus + off, p_out, g.Q_out, g.Q_max, g.Q_min, g.voltage_setpoint,
                             100, int(g.in_service), g.P_max, g.P_min])
        for br in base.branches:
            branch_rows.append([br.from_bus + off, br.to_bus + off, br.r, br.x, br.b_charging,
                                br.rate_MVA, br.rate_MVA, br.rate_MVA, br.tap_ratio,
                                br.phase_shift, int(br.in_service), -360, 360])
    r, x, b_ch, rate = TIE_LINE
    for a, b in adjacent_pairs(tiles):
        picks = rng.sample(TIE_BUSES, TIES_PER_PAIR)
        if reference in (a, b) and REFERENCE_BUS not in picks:
            picks[0] = REFERENCE_BUS
        for bus in picks:
            branch_rows.append([bus + TILE_BUSES * a, bus + TILE_BUSES * b,
                                r, x, b_ch, rate, rate, rate, 0, 0, 1, -360, 360])

    def table(name: str, rows) -> list[str]:
        return [f"mpc.{name} = ["] + ["\t" + "\t".join(_num(v) for v in row) + ";" for row in rows] + ["];"]

    name = f"ieee24_x{tiles}_s{seed}"
    lines = [
        f"function mpc = {name}",
        f"% {tiles} tiles of ieee24_rts, tie lines drawn with seed {seed}.",
        "mpc.version = '2';",
        f"mpc.baseMVA = {_num(base.base_MVA)};",
        *table("bus", bus_rows),
        *table("gen", gen_rows),
        *table("branch", branch_rows),
    ]
    return "\n".join(lines) + "\n"


class TiledCases:
    """Generates tiled case text from the bundled ieee24_rts."""

    def __init__(self):
        from ecogrid.caseio import load_case
        from ecogrid.cases import case_path

        self.base, _ = load_case(case_path("ieee24_rts"))
        self.dispatch = reference_dispatch(self.base)

    def text(self, tiles: int, seed: int) -> str:
        return tiled_case_text(self.base, tiles, seed, self.dispatch)


def _seed_range(spec: str) -> range:
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiles", type=int, nargs="+", default=[10, 100])
    parser.add_argument("--seeds", default="0-5", help="inclusive range, e.g. 0-9")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from ecogrid.caseio import parse_case
    from ecogrid.model import validate
    from ecogrid.powerflow import solve

    cases = TiledCases()
    bad = 0
    for tiles in args.tiles:
        for seed in _seed_range(args.seeds):
            network = parse_case(cases.text(tiles, seed))
            issues = validate(network)
            solution = solve(network)
            ok = not issues and solution.converged
            bad += not ok
            print(f"tiles={tiles} seed={seed} buses={len(network.buses)} issues={len(issues)} "
                  f"converged={solution.converged} iterations={solution.iterations}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
