"""Minimax localization of sensor networks from bounded-error range measurements.

The package provides:

* scenario generation and measurement-error models (:mod:`minmaxloc.model`),
* a small dense semidefinite-programming solver (:mod:`minmaxloc.sdp`),
* the centralized minimax position estimator (:mod:`minmaxloc.central`),
* exact grid oracles for single-sensor regions (:mod:`minmaxloc.geom`),
* the distributed per-node estimator with certified error radii
  (:mod:`minmaxloc.dist`),
* an experiment driver plus a nonlinear least-squares baseline
  (:mod:`minmaxloc.experiment`) and a command line front end
  (:mod:`minmaxloc.cli`).
"""

__version__ = "0.1.0"
