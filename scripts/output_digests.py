"""Print a digest of every output of a fixed set of cmdplab runs.

The runs go through cmdplab.cli.main in this process, in a temporary
directory:

- train on the two_state_chain preset with perfbench's train_dual options
  (-K 2000 -T 100, epsilon 0.1, bonus 0, dual cap 4, grid step 2^-8) at
  learner seeds 1, 2 and 3;
- generate a 10x4x8 instance at seed 3 (zeta 0.5), solve it, and train on it
  with perfbench's train_plan options (-K 300 -T 3, epsilon 1, seed 3) at
  bonus scales 0 and 0.1 and at the CLI's default scale 1 (no
  --bonus-scale), and in strict mode at -K 200 -T 37, bonus 0.1 and bonus 0;
- train on that instance at bonus 1e-4, -K 4100 -T 64 (label train_blocks):
  the dual stays active, so most mixtures have several components, and
  the learner draws most episodes in blocks, across both of its first two
  2048-episode stream tables and into a third;
- solve each preset (their dual bisections reach exact ties, such as
  lambda = 0.5 on two_state_chain);
- generate and solve 3x2x3, 10x4x8 and 30x5x10 instances at Dirichlet
  alpha 1, and 10x4x8 at alpha 0.1, each at seeds 1 and 2 (labels
  generate_<S>x<A>x<H>_alpha<alpha>_seed<seed> and solve_...): their
  bisections keep a bracket end wherever its re-scored Q-tables pick its
  own actions, so these lines guard that reuse;
- solve the 3x2x3 seed-2 instance with every action written twice (label
  solve_3x2x3_alpha1_seed2_twins; the script writes that instance file):
  twins tie exactly at every lambda, where a bracket end is kept only if
  the tie rule, lowest action first, picks it;
- evaluate over 20,000 Monte Carlo episodes the bonus-0.1 run's policy, the
  bonus-0 and train_blocks runs' policies (291 and 2,052 one-hot
  components, so component draws count past 255), the solve run's optimal
  mixture (perfbench's evaluate_mc path: one-hot components), a
  one-component policy whose rule is uniform over the 4 actions (stochastic
  draws) and an even mixture of a one-hot component and that uniform one
  (one stochastic component keeps every action on the categorical draw);
  the script writes the last three policy files;
- evaluate on the risky_shortcut preset, whose kernel rows end in
  zero-probability entries, two mixtures weighted (0.5, 0.5 - 1e-10, 0.0),
  so the weights' running sum stops growing before its end: one of three
  one-hot components, one whose middle component has a uniform rule;
- render the bonus-0.1 run's charts again with report, from a copy of its
  run.csv;
- print each subcommand's --help (at a fixed 80-column width).

Each call gets a directory of its own, named by its label. The script prints
one line `sha256 label name` per file in that directory after the call, per
captured stdout (name `stdout`, with the temporary directory replaced by
`TMP`) and per help text (label `help`). Two checkouts produce the same
outputs exactly when their lines match, so diff the output of

    PYTHONPATH=<checkout>/src python3 scripts/output_digests.py

at two checkouts. The script takes no options.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

from cmdplab.cli import main
from cmdplab.generate import preset_names

INSTANCE = "{tmp}/generate/instance.json"
DUAL = ["--preset", "two_state_chain", "-K", "2000", "-T", "100",
        "--epsilon", "0.1", "--bonus-scale", "0", "--dual-cap", "4",
        "--grid-step", "0.00390625", "--out", "{out}"]
PLAN = ["--instance", INSTANCE, "--epsilon", "1.0", "--seed", "3", "--out", "{out}"]
RUNS = [
    *((f"train_dual_seed{s}", ["train", *DUAL, "--seed", str(s)]) for s in (1, 2, 3)),
    ("generate", ["generate", "--S", "10", "--A", "4", "--H", "8", "--zeta", "0.5",
                  "--seed", "3", "--out", INSTANCE]),
    ("solve", ["solve", "--instance", INSTANCE]),
    *((f"solve_{name}", ["solve", "--preset", name]) for name in preset_names()),
    *((f"{cmd}_{s}x{a}x{h}_alpha{alpha}_seed{seed}", argv)
      for s, a, h, alpha in ((3, 2, 3, 1), (10, 4, 8, 1), (10, 4, 8, 0.1), (30, 5, 10, 1))
      for seed in (1, 2)
      for cmd, argv in (
          ("generate", ["generate", "--S", str(s), "--A", str(a), "--H", str(h), "--alpha",
                        str(alpha), "--seed", str(seed), "--out", "{out}/instance.json"]),
          ("solve", ["solve", "--instance",
                     f"{{tmp}}/generate_{s}x{a}x{h}_alpha{alpha}_seed{seed}/instance.json"]))),
    ("solve_3x2x3_alpha1_seed2_twins", ["solve", "--instance", "{out}/instance.json"]),
    ("train_plan_bonus0", ["train", *PLAN, "-K", "300", "-T", "3", "--bonus-scale", "0"]),
    ("train_plan_bonus0.1", ["train", *PLAN, "-K", "300", "-T", "3",
                             "--bonus-scale", "0.1"]),
    ("train_plan_bonus1", ["train", *PLAN, "-K", "300", "-T", "3"]),  # the default scale
    ("train_strict", ["train", *PLAN, "--mode", "strict", "-K", "200", "-T", "37",
                      "--bonus-scale", "0.1"]),
    ("train_strict_bonus0", ["train", *PLAN, "--mode", "strict", "-K", "200", "-T", "37",
                             "--bonus-scale", "0"]),
    ("train_blocks", ["train", *PLAN, "-K", "4100", "-T", "64", "--bonus-scale", "0.0001"]),
    ("evaluate", ["evaluate", "--instance", INSTANCE, "--episodes", "20000",
                  "--policy", "{tmp}/train_plan_bonus0.1/policy.json"]),
    *((f"evaluate_{run}", ["evaluate", "--instance", INSTANCE, "--episodes", "20000",
                           "--policy", f"{{tmp}}/{run}/policy.json"])
      for run in ("train_plan_bonus0", "train_blocks")),  # 291 and 2,052 components
    *((f"evaluate_{name}", ["evaluate", "--instance", INSTANCE, "--episodes", "20000",
                            "--policy", "{out}/policy.json"])
      for name in ("optimal", "uniform", "mixed")),
    *((f"evaluate_risky_{name}", ["evaluate", "--preset", "risky_shortcut", "--episodes",
                                  "20000", "--policy", "{out}/policy.json"])
      for name in ("actions", "rule")),
    ("report", ["report", "--run-dir", "{out}"]),  # on a copy of the bonus-0.1 run.csv
]
COMMANDS = ("generate", "solve", "train", "evaluate", "report", "suite")
UNIFORM = {"S": 10, "A": 4, "H": 8,
           "components": [{"weight": 1.0, "rule": [[[0.25] * 4] * 10] * 8}]}
MIXED = {"S": 10, "A": 4, "H": 8,
         "components": [{"weight": 0.5, "actions": [[(h + s) % 4 for s in range(10)]
                                                    for h in range(8)]},
                        {"weight": 0.5, "rule": UNIFORM["components"][0]["rule"]}]}
SHORT = (0.5, 0.5 - 1e-10, 0.0)  # sums to 1 - 1e-10, within PROB_TOL
RISKY_ACTIONS = [[[(h + s + j) % 2 for s in range(3)] for h in range(3)] for j in range(3)]
RISKY = {"S": 3, "A": 2, "H": 3,
         "components": [{"weight": w, "actions": t} for w, t in zip(SHORT, RISKY_ACTIONS)]}
RISKY_RULE = {**RISKY, "components": [RISKY["components"][0],
                                      {"weight": SHORT[1], "rule": [[[0.5, 0.5]] * 3] * 3},
                                      RISKY["components"][2]]}
POLICIES = {"evaluate_uniform": UNIFORM, "evaluate_mixed": MIXED,  # files the script writes
            "evaluate_risky_actions": RISKY, "evaluate_risky_rule": RISKY_RULE}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def call(argv, tmp) -> str:
    """Run main(argv); returns its stdout with the temporary directory
    replaced. A --help call ends in SystemExit(0), which counts as success."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            main(argv)
        except SystemExit as e:
            if e.code not in (0, None):
                raise
    return buf.getvalue().replace(str(tmp), "TMP")


def main_digests() -> None:
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal width
    with tempfile.TemporaryDirectory() as tmp_dir:
        tmp = Path(tmp_dir)
        stdouts = {}
        for label, argv in RUNS:
            out = tmp / label
            out.mkdir()
            if label == "report":
                shutil.copy(tmp / "train_plan_bonus0.1" / "run.csv", out)
            elif label == "evaluate_optimal":  # the mixture solve printed
                optimal = json.loads(stdouts["solve"])["policy"]
                (out / "policy.json").write_text(json.dumps(optimal))
            elif label in POLICIES:
                (out / "policy.json").write_text(json.dumps(POLICIES[label]))
            elif label == "solve_3x2x3_alpha1_seed2_twins":  # each action twice
                doc = json.loads((tmp / "generate_3x2x3_alpha1_seed2/instance.json").read_text())
                doc["A"] *= 2
                for key in ("P", "r", "c"):
                    doc[key] = [[actions + actions for actions in step] for step in doc[key]]
                (out / "instance.json").write_text(json.dumps(doc))
            stdout = stdouts[label] = call([a.format(tmp=tmp, out=out) for a in argv], tmp)
            for path in sorted(out.iterdir()):
                print(digest(path.read_bytes()), label, path.name)
            print(digest(stdout.encode()), label, "stdout")
        print(digest(call(["--help"], tmp).encode()), "help", "cmdplab")
        for command in COMMANDS:
            print(digest(call([command, "--help"], tmp).encode()), "help", command)


if __name__ == "__main__":
    main_digests()
