"""Command-line front end.

Subcommands::

    dageo verify --theorem <id> --trials N --seed S [--bound B] [--json out]
    dageo list-theorems
    dageo construct --scene scene.json --out result.json
    dageo plot --scene scene.json --svg out.svg
    dageo euclid-export --trials N [--seed S] [--json out]

``verify`` and ``euclid-export`` print the same status line and write the
same report shape (:class:`dageo.harness.TheoremReport`).

Exit codes: 0 all pass, 1 counterexample found, 2 invalid input or scene
(a figure that binary64 cannot draw included), or a file could not be
read or written, 3 generator exhaustion, 4 kernel error (outranks 1).
``construct`` exits with the worst code of the campaigns it verifies.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import GeneratorExhaustedError
from .euclid import run_euclid_campaign
from .harness import REGISTRY, CampaignConfig, TheoremReport, run_campaign
from .scene import Scene, run_scene
from .svg import render_svg

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INVALID = 2
EXIT_EXHAUSTED = 3
EXIT_KERNEL_ERROR = 4


def _load_scene(path: str) -> Scene:
    with open(path, encoding="utf-8") as handle:
        return Scene.from_dict(json.load(handle))


def _exit_code(failures: int, errors: int) -> int:
    if errors:
        return EXIT_KERNEL_ERROR
    return EXIT_COUNTEREXAMPLE if failures else EXIT_OK


def _emit(report: TheoremReport, json_path: str | None) -> int:
    """Write the report JSON if asked, print its status line and return
    the exit code."""
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
    code = _exit_code(report.failures, report.errors)
    status = {EXIT_OK: "PASS", EXIT_COUNTEREXAMPLE: "FAIL"}.get(code, "ERROR")
    errors = f" errors={report.errors}" if report.errors else ""
    print(f"{status} {report.theorem}: trials={report.trials} "
          f"failures={report.failures} seed={report.seed}{errors}")
    for first in (report.first_counterexample, report.first_error):
        if first is not None:
            print(json.dumps(first, sort_keys=True, indent=2))
    return code


def _cmd_verify(args) -> int:
    try:
        cfg = CampaignConfig(args.theorem, trials=args.trials, seed=args.seed,
                             bound=args.bound)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return _emit(run_campaign(cfg), args.json)


def _cmd_list(_args) -> int:
    for theorem in REGISTRY.values():
        print(f"{theorem.id:24s} {theorem.description}")
    return EXIT_OK


def _cmd_construct(args) -> int:
    try:
        scene = _load_scene(args.scene)
        document, _ = run_scene(scene, trials=args.trials, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    text = json.dumps(document, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return max((_exit_code(r["failures"], r.get("errors", 0))
                for r in document["verified"]), default=EXIT_OK)


def _cmd_plot(args) -> int:
    try:
        scene = _load_scene(args.scene)
        _, drawables = run_scene(scene, verify=False)
        svg = render_svg(drawables)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    with open(args.svg, "w", encoding="utf-8") as handle:
        handle.write(svg)
    print(f"wrote {args.svg}")
    return EXIT_OK


def _cmd_euclid(args) -> int:
    if args.trials < 1:
        print("error: trials must be >= 1", file=sys.stderr)
        return EXIT_INVALID
    return _emit(run_euclid_campaign(args.trials, args.seed), args.json)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dageo",
        description="exact difference-angle geometry kernel and "
                    "theorem-verification harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a randomized theorem campaign")
    p.add_argument("--theorem", required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--bound", type=int, default=50)
    p.add_argument("--json", help="write the report JSON here")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("list-theorems", help="list registered theorem ids")
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("construct", help="apply a scene's constructions")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", help="write the result JSON here")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("plot", help="render a scene to SVG")
    p.add_argument("--scene", required=True)
    p.add_argument("--svg", required=True)
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("euclid-export",
                       help="exact Euclidean bisector-collinearity campaign")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--json", help="write the report JSON here")
    p.set_defaults(func=_cmd_euclid)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except GeneratorExhaustedError as exc:
        print(f"error: generator exhausted: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED


if __name__ == "__main__":
    sys.exit(main())
