"""MapReduce substrate: a Hadoop-like single-process simulator.

This subpackage implements everything the paper's evaluation platform
(Hadoop 1.0.3 on a 12-machine cluster) provided: the job API, the
map-side sort buffer with spills and spill-time combining, the shuffle
with byte accounting, the reduce-side merge with grouping comparators,
compression codecs, counters, and a cluster runtime model.

Data sizes are *measured*, not modelled: every record is really
serialised (:mod:`repro.mr.serde`) and really compressed
(:mod:`repro.mr.compress`), so the byte counts reported by the engine
are exact for the simulated data.
"""

from repro.mr.api import (
    Combiner,
    Context,
    HashPartitioner,
    Mapper,
    Partitioner,
    Reducer,
)
from repro.mr.comparators import Comparator, default_comparator
from repro.mr.compress import available_codecs, get_codec
from repro.mr.config import JobConf
from repro.mr.counters import Counters
from repro.mr.engine import JobResult, LocalJobRunner
from repro.mr.events import EventLog, TaskEvent
from repro.mr.executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    WorkerCrashError,
)
from repro.mr.runtime_model import ClusterModel
from repro.mr.scheduler import (
    FaultPolicy,
    JobScheduler,
    NoFaults,
    RetryPolicy,
    ScriptedFaults,
    TaskFailedError,
    TaskTimeoutError,
)
from repro.mr.split import split_records

__all__ = [
    "ClusterModel",
    "Combiner",
    "Comparator",
    "Context",
    "Counters",
    "EventLog",
    "Executor",
    "FaultPolicy",
    "HashPartitioner",
    "JobConf",
    "JobResult",
    "JobScheduler",
    "LocalJobRunner",
    "Mapper",
    "NoFaults",
    "ParallelExecutor",
    "Partitioner",
    "Reducer",
    "RetryPolicy",
    "ScriptedFaults",
    "SerialExecutor",
    "TaskEvent",
    "TaskFailedError",
    "TaskTimeoutError",
    "WorkerCrashError",
    "available_codecs",
    "default_comparator",
    "get_codec",
    "split_records",
]
