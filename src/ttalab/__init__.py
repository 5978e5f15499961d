"""Sample-aware test-time adaptation engine and benchmark harness."""

from .adaptors import (AdaptorSet, Configuration, StepTrace, adapt_steps,
                       adapted_forward, init_adaptors)
from .data import Dataset, ShiftParams, SyntheticTaskSpec, gen_dataset, load_dataset
from .layers import TrainReport
from .metrics import (MetricsReport, bonferroni, mae, psnr, ssim,
                      wilcoxon_signed_rank)
from .pipeline import RunConfig, RunReport, compare_strategies, pipeline_run
from .recon import Autoencoder, ReconSuite, ShiftErrors, concat_symmetric, train_recon_suite
from .search import (AdaptEvaluator, SearchBudget, SearchOutcome, TtaRunner,
                     backward_elimination, bayesian_search, calibrate_threshold,
                     enumerate_configurations, forward_selection, grid_search,
                     random_search, trigger)
from .tasknet import FeatureTrace, TaskModel, train_task, translate
from .tensor import (AdamState, LrSchedule, NumericError, TapeError, Tensor,
                     adam_step, backward, conv2d, conv2d_1x1, l1_distance,
                     make_adam, mse_loss, no_grad, zero_grads)

__version__ = "0.1.0"
