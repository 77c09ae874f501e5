# Runs bench_model_perf in JSON mode and post-processes the dump into the
# normalized trajectory file. Driven as `cmake -P` by both the
# `bench_report` custom target and the bench_report_smoke ctest entry.
#
# Required -D variables:
#   BENCH_BINARY   - path to the bench_model_perf executable
#   REPORT_BINARY  - path to the bench_json_report executable
#   RAW_JSON       - where to write the raw google-benchmark dump
#   OUTPUT_JSON    - where to write the normalized BENCH_model_perf.json
# Optional:
#   MIN_TIME       - per-benchmark min time in seconds, plain double (the
#                    bundled google-benchmark rejects the "0.1s" suffix
#                    form); empty = library default
#   BENCH_FILTER   - --benchmark_filter regex; empty = all benchmarks
#   REPETITIONS    - --benchmark_repetitions; empty = 1. The report folds
#                    the repetitions into a median, a minimum and a
#                    coefficient of variation per benchmark. Repetitions
#                    run randomly interleaved across benchmarks, so a slow
#                    stretch of the shared host lands on several
#                    benchmarks' repetitions instead of all of one's
#   BUILD_TYPE     - zonestream's CMAKE_BUILD_TYPE, recorded in the output
#                    context as provenance
#   REQUIRE_RELEASE - ON makes bench_json_report refuse non-Release
#                    BUILD_TYPEs (the checked-in trajectory must come from
#                    a Release build) and a non-release google-benchmark
#                    library
#   ALLOW_DEBUG_LIBRARY - ON waives only the library half of
#                    REQUIRE_RELEASE, for hosts whose distro benchmark
#                    package reports a non-release build type and cannot
#                    be rebuilt; the tag still lands in the output context

foreach(var BENCH_BINARY REPORT_BINARY RAW_JSON OUTPUT_JSON)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_bench_report.cmake: ${var} is required")
  endif()
endforeach()

set(bench_args
  --benchmark_format=json
  --benchmark_out=${RAW_JSON}
  --benchmark_out_format=json)
if(DEFINED MIN_TIME AND NOT MIN_TIME STREQUAL "")
  list(APPEND bench_args --benchmark_min_time=${MIN_TIME})
endif()
if(DEFINED REPETITIONS AND NOT REPETITIONS STREQUAL "")
  list(APPEND bench_args --benchmark_repetitions=${REPETITIONS}
    --benchmark_enable_random_interleaving=true)
endif()
if(DEFINED BENCH_FILTER AND NOT BENCH_FILTER STREQUAL "")
  list(APPEND bench_args --benchmark_filter=${BENCH_FILTER})
endif()

message(STATUS "Running ${BENCH_BINARY} ${bench_args}")
execute_process(
  COMMAND ${BENCH_BINARY} ${bench_args}
  RESULT_VARIABLE bench_result)
if(NOT bench_result EQUAL 0)
  message(FATAL_ERROR "bench_model_perf failed (exit ${bench_result})")
endif()

set(report_args)
if(DEFINED BUILD_TYPE AND NOT BUILD_TYPE STREQUAL "")
  list(APPEND report_args --build-type=${BUILD_TYPE})
endif()
if(DEFINED REQUIRE_RELEASE AND REQUIRE_RELEASE)
  list(APPEND report_args --require-release)
endif()
if(DEFINED ALLOW_DEBUG_LIBRARY AND ALLOW_DEBUG_LIBRARY)
  list(APPEND report_args --allow-debug-library)
endif()

execute_process(
  COMMAND ${REPORT_BINARY} ${report_args} ${RAW_JSON} ${OUTPUT_JSON}
  RESULT_VARIABLE report_result)
if(NOT report_result EQUAL 0)
  message(FATAL_ERROR "bench_json_report failed (exit ${report_result})")
endif()

message(STATUS "Benchmark trajectory written to ${OUTPUT_JSON}")
