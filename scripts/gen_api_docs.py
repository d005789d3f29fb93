#!/usr/bin/env python3
"""Regenerate docs/API.md from package docstrings."""

import importlib
import inspect
import os

PACKAGES = [
    "repro.hashing", "repro.core", "repro.core.batch", "repro.workloads",
    "repro.counting", "repro.cardinality", "repro.membership",
    "repro.frequency", "repro.quantiles", "repro.moments",
    "repro.sampling", "repro.dimreduction", "repro.lsh",
    "repro.graphsketch", "repro.linalg", "repro.parallel",
    "repro.streaming", "repro.adtech", "repro.privacy", "repro.federated",
    "repro.adversarial", "repro.concurrent", "repro.obs",
    "repro.obs.trace", "repro.obs.audit", "repro.obs.http",
    "repro.obs.timeline", "repro.obs.profile",
    "repro.obs.alerts", "repro.obs.lifecycle",
    "repro.obs.bench",
    "repro.store", "repro.store.segment", "repro.store.compact",
]

#: modules whose full docstring goes into the reference (they document a
#: cross-cutting protocol, not just a container of names).
FULL_DOC = {
    "repro.core.batch", "repro.parallel",
    "repro.streaming",
    "repro.concurrent", "repro.obs",
    "repro.obs.trace", "repro.obs.audit", "repro.obs.http",
    "repro.obs.timeline", "repro.obs.profile",
    "repro.obs.alerts", "repro.obs.lifecycle",
    "repro.obs.bench",
    "repro.store", "repro.store.segment", "repro.store.compact",
}


def main() -> None:
    lines = [
        "# API reference",
        "",
        "Generated from module and class docstrings "
        "(`python scripts/gen_api_docs.py` regenerates).",
        "",
    ]
    for name in PACKAGES:
        mod = importlib.import_module(name)
        lines.append(f"## `{name}`")
        lines.append("")
        doc = inspect.getdoc(mod) or ""
        lines.append(doc if name in FULL_DOC else doc.split("\n\n")[0])
        lines.append("")
        for attr in getattr(mod, "__all__", []):
            obj = getattr(mod, attr)
            first = (inspect.getdoc(obj) or "").split("\n")[0]
            kind = (
                "class"
                if inspect.isclass(obj)
                else ("func" if callable(obj) else "const")
            )
            lines.append(f"- **`{attr}`** ({kind}) — {first}")
        lines.append("")
    out = os.path.join(os.path.dirname(__file__), "..", "docs", "API.md")
    with open(out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
