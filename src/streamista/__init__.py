"""Streaming soft-thresholding recovery of time-varying sparse signals.

The package has five layers: measurement operators and isometry estimates
(:mod:`.measurement`), synthetic drifting targets (:mod:`.signals`), the
streaming solver and its continuous-time twin (:mod:`.solver`), closed-form
tracking bounds with checkable preconditions (:mod:`.theory`), and the
experiment harness plus CLI (:mod:`.harness`, :mod:`.cli`).
"""

__version__ = "0.1.0"
