"""curvo: curriculum-trained pose-sequence regression at desk scale.

A numpy library (plus a small CLI) covering: SE(3) pose algebra on
quaternions, a tape-based reverse-mode engine, an LSTM pose regressor, the
window-composite training objective with staged schedules (one stage per
alpha), synthetic trajectory/feature generation, KITTI-style trajectory
metrics, and CSV reports with SVG plots drawn from them.
"""

__version__ = "0.1.0"
