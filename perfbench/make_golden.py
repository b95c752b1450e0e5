"""Regenerate golden.json: the digest of every operation in each workload's
list for the default seed. Run it from the repository root, and only when
a change is meant to alter what the program computes:

    python3 perfbench/make_golden.py
"""

import json
import sys

import run


def main():
    run.import_program()
    import workloads

    digests = {}
    for name, make in workloads.WORKLOADS.items():
        workload = make(run.OUT_DIR / "tmp")
        table = []
        for j, inputs in enumerate(workload.setup(workloads.DEFAULT_SEED)):
            checked = workloads.check(workload.run(inputs))
            if checked.problems:
                sys.exit(f"{name} op {j}: " + "; ".join(checked.problems))
            table.append(checked.digest)
        digests[name] = table
        print(f"{name}: {len(table)} digests", flush=True)
    with open(run.GOLDEN, "w") as f:
        json.dump({"seed": workloads.DEFAULT_SEED, "digests": digests}, f,
                  indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
