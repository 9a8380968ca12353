"""Variational image reconstruction with learned convex regularizers.

The regularizer is an input-convex network; the nested minimization is
rewritten with per-layer auxiliary variables constrained to activation
epigraphs, which restores convexity and makes every proximal map explicit.
A diagonal-preconditioned block primal-dual solver runs the reformulation;
projected subgradient descent on the nested form is included as a baseline.
"""

from .blocks import BlockAssembly, BlockOperator, BlockRow, assemble_blocks
from .icnn import (Activation, AdmissibilityError, AdmissibilityReport,
                   ConvPoolDenseTemplate, DenseTemplate, IcnnLayer, IcnnSpec,
                   forward, load_weights, random_admissible,
                   save_weights, validate, value_and_subgradient)
from .linops import (AvgPool2D, Compose, Conv2D, Dense, DiagonalMask, LinOp,
                     NormEstimate, ScaledIdentity, estimate_norm, materialize)
from .prox import (kl_conjugate_prox, project_epigraph_leaky_relu,
                   readout_conjugate_prox, soft_shrink)
from .radon import Radon, RadonGeometry
from .solver import (CertificationError, ConstantStep, DiminishingStep,
                     DivergenceError, Fidelity, ProblemSpec, RunMetrics,
                     SaddleState, StepSizes, compute_step_sizes,
                     evaluate_objectives, iterations_to_threshold, kl_fidelity,
                     l1_fidelity, l2_fidelity, pdhg_solve, subgradient_solve)
from .tasks import TaskConfig, build_problem, corrupt, fbp, make_phantom, psnr, write_pgm
from .tensor import (BlobFormatError, NonFiniteError, ShapeMismatchError,
                     as_tensor, read_tensor, write_tensor)

__version__ = "0.1.0"
