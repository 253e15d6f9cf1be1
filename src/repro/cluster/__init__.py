"""Archive-scale structural clustering and verdict propagation.

The paper's Debian prevalence study (§6) re-checks thousands of
near-identical functions: the same patterns instantiated under different
names across packages.  This package deduplicates that work one level above
the solver-query cache: instead of replaying individual query verdicts, it
groups whole functions into equivalence candidates and replays whole
*checker* verdicts.

The pipeline has three stages (docs/CLUSTER.md):

1. **Fingerprint** (:mod:`repro.cluster.fingerprint`) — every IR function is
   alpha-renamed and serialized into a canonical structural form
   (reverse-post-order blocks, position-numbered values, commutative
   operands in canonical order), generalizing the content-addressed cache
   keys of :mod:`repro.engine.cache` from term DAGs to whole functions.
2. **Cluster** (:mod:`repro.cluster.cluster`) — functions with identical
   canonical forms are grouped into candidate equivalence clusters, in
   deterministic first-appearance order.
3. **Propagate** (:mod:`repro.cluster.propagate`) — one representative per
   cluster is solved through the ordinary checker; every other member is
   first *confirmed* equivalent by the repair verifier's equivalence query
   (:func:`repro.repair.verify.equivalence_query`), and only then receives
   a copy of the representative's verdict, remapped onto its own
   instructions.  Members that cannot be confirmed fall back to a full
   check — propagation never trades soundness for speed.

Clustering is a run mode of the corpus engine, and only the engine drives
it: ``CheckEngine(EngineConfig(cluster=True))``, ``check_corpus(...,
engine_config=EngineConfig(cluster=True))`` or ``python -m repro cluster``.
"""

from repro.cluster.cluster import ClusterMember, FunctionCluster, cluster_functions
from repro.cluster.fingerprint import FunctionFingerprint, fingerprint_function
from repro.cluster.propagate import propagate_clusters
from repro.cluster.synthetic import synthetic_cluster_corpus
from repro.core.report import ClusterStats

__all__ = [
    "ClusterMember",
    "ClusterStats",
    "FunctionCluster",
    "FunctionFingerprint",
    "cluster_functions",
    "fingerprint_function",
    "propagate_clusters",
    "synthetic_cluster_corpus",
]
