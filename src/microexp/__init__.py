"""2D+3D micro-expression baseline pipeline.

Preprocessing (similarity alignment + face crop for video, denoise + nose
tip + spherical crop + ICP registration for point clouds), LBP-TOP texture
features, point-cloud curvature features (HK surface types and quantized
shape index), probability-level fusion of ``(n, C)`` class-probability arrays,
and LOSO / repeated stratified k-fold evaluation.
"""

from .curvature3d import (CurvatureConfig, SurfaceType, hk_classify, principal_curvatures,
                          quantize_si, sequence_feature, shape_index)
from .dataset import (NonObjectiveClass, ObjectiveClass, SampleData, SampleRecord,
                      coder_reliability, load_index, nonobjective_label, objective_label,
                      save_index)
from .learn import (EvalResult, cross_val_runs, fuse, kfold_splits, loso_split, metrics,
                    select_fusion_weight, train)
from .lbptop import FeatureVector, LbpTopConfig, lbp_top_histogram, mean_difference_weights
from .preprocess2d import (CropResult, FrameVolume, SimilarityTransform, crop_face,
                           estimate_alignment, warp_volume)
from .preprocess3d import (IcpResult, PointCloudFrame, RigidTransform, denoise,
                           find_nose_tip, icp_align, register_sequence, spherical_crop)
from .synth import SynthSpec, make_dataset

__version__ = "0.1.0"
