"""Constrained-path AFQMC for transverse-field Ising systems with
tensor-train re-anchored trial wavefunctions."""

from .config import RunConfig, config_from_dict, load_config
from .oracle import ExactSolution, exact_ground
from .qmc_driver import (
    EnergyTrace,
    blocking_error,
    default_trial,
    fidelity,
    mixed_energy,
    run,
)
from .sketching import SketchPair, make_sketch_pair, sketch_ensemble
from .spin_model import (
    Lattice,
    PropagatorSet,
    analytic_chain_energy,
    build_lattice,
    dense_hamiltonian,
    hs_lambda,
    one_body_matrix,
)
from .tensor_train import (
    ProductState,
    TensorTrain,
    load_tt,
    save_tt,
    tt_to_dense,
    tt_tt_overlap,
)
from .walker_engine import (
    Ensemble,
    TrialHandle,
    Walker,
    population_control,
    reanchor_overlaps,
    sample_bond,
    step,
)

__version__ = "0.1.0"
