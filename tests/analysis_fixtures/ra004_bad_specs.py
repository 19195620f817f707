"""RA004 violations: spec literals that can never build."""

UNKNOWN_COMPONENT = "rcm+nosuchclustering:8+cluster"
KERNEL_NEEDS_CLUSTERING = "rcm+none+cluster"
BACKEND_IN_CORE_POSITION = "rcm+fixed:8+cluster+scipy"
BACKEND_CANNOT_RUN_KERNEL = "rcm+fixed:8+cluster@scipy"
INNER_BACKEND_CANNOT_RUN_KERNEL = "rcm+tiled@sharded:workers=2,inner=scipy"


def parsed():
    from repro.pipeline import PipelineSpec

    return PipelineSpec.parse("original+fixed:8+vectorized_magic")
