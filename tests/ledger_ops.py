"""Ledger mutations for the index differential test.

One vocabulary of writes — the ones real recorders, operators and
crashes perform on a run ledger — applied either in-process through a
given :class:`~repro.obs.run_store.RunStore` or by *another process*::

    python tests/ledger_ops.py <root> '<json list of ops>'

so ``tests/test_ledger_index.py`` can interleave writers a warm store
never hears from and still demand it agrees with a cold one.
"""

from __future__ import annotations

import json
import sys
from typing import Any

from repro.obs.run_store import (
    COUNTERS_FILE,
    ENTRIES_FILE,
    RunStore,
    _write_json,
)


def entry_row(index: int, weight: float) -> dict:
    return {
        "index": index,
        "kind": "job",
        "name": f"job{index}",
        "counters": {"map.input.records": weight, "a.b": 1.0, "a_b": 2.0},
        "derived": {"mr.derived.replication.rate": weight / 2.0},
    }


def apply(store: RunStore, op: dict[str, Any]) -> None:
    kind = op["op"]
    if kind == "create":
        store.create(
            {"kind": "t", "name": op["name"], "started_unix": op["started"]}
        )
    elif kind == "append":
        store.append_rows(
            op["run"],
            ENTRIES_FILE,
            [entry_row(index, op["weight"]) for index in op["indexes"]],
        )
    elif kind == "tear":  # a writer died mid-append
        with (store.root / op["run"] / ENTRIES_FILE).open("ab") as handle:
            handle.write(b'{"index": 99, "cou')
    elif kind == "finish":  # the recorder's order: receipt, then status
        if op["status"] == "completed":
            _write_json(
                store.root / op["run"] / COUNTERS_FILE,
                {"schema": 1, "counters": {"total": op["total"]}},
            )
        status = {"status": op["status"], "finished_unix": op["total"]}
        if op["status"] == "failed":
            status["error"] = "boom"
        store.write_status(op["run"], status)
    elif kind == "delete":
        store.delete(op["run"])
    elif kind == "prune":
        store.prune(op["keep"])
    else:
        raise ValueError(f"unknown ledger op {kind!r}")


if __name__ == "__main__":
    other = RunStore(sys.argv[1], keep=1000)
    for one in json.loads(sys.argv[2]):
        apply(other, one)
