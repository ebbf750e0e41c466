"""One parameter rule for every way an experiment is run.

``repro run``/``repro loadgen`` overrides (``--dashed-name value``) and
a job document's ``params`` (string or native JSON values) all resolve
through :func:`repro.experiments.resolve_params`: for every registered
experiment and each of its tunables the three spellings must give the
same params, and what ``repro loadgen`` sends must be what the job
service admits.
"""

from __future__ import annotations

import json

import pytest

import repro.obs.loadgen
from repro.cli import _argv_params, main
from repro.experiments import EXPERIMENTS, resolve_params, tunable_params
from repro.obs.jobservice import JobService
from repro.obs.run_store import RunStore


def _other_value(default):
    """A value of the default's type that is not the default."""
    if isinstance(default, bool):
        return not default
    if isinstance(default, int):
        return default + 1
    if isinstance(default, float):
        return default * 2 + 0.5
    return default + "-x"


CASES = [
    pytest.param(name, key, _other_value(default), id=f"{name}:{key}")
    for name, (driver, _) in EXPERIMENTS.items()
    for key, default in tunable_params(driver).items()
]


def _admitted(tmp_path, name: str, params: dict) -> dict:
    """The params ``JobService.submit`` admits for a JSON document."""
    service = JobService(RunStore(tmp_path))
    document = json.loads(json.dumps({"experiment": name, "params": params}))
    return service.submit(document).params


@pytest.mark.parametrize("name, key, value", CASES)
def test_every_spelling_resolves_alike(
    tmp_path, monkeypatch, name, key, value
) -> None:
    driver = EXPERIMENTS[name][0]
    flag = "--" + key.replace("_", "-")
    cli = resolve_params(driver, _argv_params([flag, str(value)]))
    assert cli == {key: value}
    assert _admitted(tmp_path, name, {key: str(value)}) == cli
    assert _admitted(tmp_path, name, {key: value}) == cli

    sent: list[dict] = []

    class Report:
        def summary(self) -> str:
            return "loadgen: OK"

        def ok(self) -> bool:
            return True

    def fake_run_load(**kwargs):
        sent.append(kwargs["params"])
        return Report()

    monkeypatch.setattr(repro.obs.loadgen, "run_load", fake_run_load)
    argv = ["loadgen", "--experiment", name, "--", flag, str(value)]
    assert main(argv) == 0
    assert sent == [cli]
    assert _admitted(tmp_path, name, sent[0]) == sent[0]
