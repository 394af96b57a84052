"""codecbench: codec evaluation toolkit.

Each name lives in one submodule and is imported from it: quality
metrics in `metrics` over the readers of `video_io`, Bjøntegaard deltas
in `rd`, subjective statistics in `subjective`, complexity analysis in
`profiling`, exceptions in `errors`, report writing in `report` and the
command line in `cli`. `import codecbench` loads none of them.
"""

__version__ = "0.1.0"
