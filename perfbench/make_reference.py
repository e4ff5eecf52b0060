"""Regenerate ``reference/provision.csv``, the analytic values the provision
workload must reproduce to 1e-9 relative.

Run from the repository root: ``python3 perfbench/make_reference.py``. Only
regenerate it in a change that deliberately alters the closed form, and say so.
"""

import tempfile
from pathlib import Path

from workloads import REFERENCE, experiments, provision_specs


def main() -> None:
    lines = ["spec,axis_value,metric,analytic,status"]
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in provision_specs():
            path = Path(tmp) / f"{name}.yaml"
            path.write_text(text, encoding="utf-8")
            res = experiments.run_sweep(experiments.load_spec(path))
            for r in res.rows:
                an = "" if r.analytic is None else f"{r.analytic:.12g}"
                lines.append(f"{name},{r.axis_value:.12g},{r.metric},{an},{r.status}")
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines) - 1} rows to {REFERENCE}")


if __name__ == "__main__":
    main()
