# Runs bench_micro with --benchmark_list_tests=true and CTJ_BENCH_JSON_DIR
# set to an empty directory, and fails if a record appears there: a run that
# measures nothing must not overwrite BENCH_micro.json.
#
# Usage: cmake -DBENCH_MICRO=<bench_micro> -DOUT_DIR=<scratch dir>
#              -P bench_micro_writes_no_empty_record.cmake
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env CTJ_BENCH_JSON_DIR=${OUT_DIR}
          ${BENCH_MICRO} --benchmark_list_tests=true
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_micro --benchmark_list_tests=true exited ${rc}")
endif()
file(GLOB written "${OUT_DIR}/*")
file(REMOVE_RECURSE "${OUT_DIR}")
if(written)
  message(FATAL_ERROR "bench_micro wrote ${written} on a run that measured "
                      "nothing")
endif()
