"""Variance-component analysis of machine-learning experiment results.

Fits linear mixed models with crossed random intercepts (seed,
hyper-parameter configuration) to experiment result tables, tests which
factors drive variability (random-effect LRTs, Satterthwaite-corrected
ANOVA, means comparisons), and simulates synthetic experiment trees for
estimator validation.
"""

from .data import (Dataset, ModelSpec, DataError, SchemaError,
                   RowError, EmptyDataError, cross_factor, ensure_factor,
                   load_csv, write_csv)
from .design import (DesignError, DesignMatrices, build_design, contrast_rows,
                     difference_rows, omnibus_rows)
from .lmm import (DegenerateDataError, FitError, FittedLMM, VarianceComponents,
                  aic, fit_lmm, reml_deviance)
from .inference import (AnovaRow, ContrastRow, InferenceError, LRTRow,
                        RanovaResult, anova_fixed, contrasts, ranova,
                        satterthwaite_df)
from .simulate import (HyperparamDistribution, SimulationError, TreeDesign,
                       generate, sample_hyperparams)
from .tails import chisq_sf, f_sf, t_quantile, t_sf

__version__ = "0.1.0"

__all__ = [
    "Dataset", "ModelSpec", "DataError", "SchemaError",
    "RowError", "EmptyDataError", "cross_factor", "ensure_factor", "load_csv",
    "write_csv",
    "DesignError", "DesignMatrices", "build_design", "contrast_rows",
    "difference_rows", "omnibus_rows",
    "DegenerateDataError", "FitError", "FittedLMM",
    "VarianceComponents", "aic", "fit_lmm", "reml_deviance",
    "AnovaRow", "ContrastRow", "InferenceError", "LRTRow", "RanovaResult",
    "anova_fixed", "contrasts", "ranova", "satterthwaite_df",
    "HyperparamDistribution", "SimulationError", "TreeDesign", "generate",
    "sample_hyperparams",
    "chisq_sf", "f_sf", "t_quantile", "t_sf",
]
