# Bench-artifact smoke check (cmake -P; no external JSON tooling needed).
#
#   cmake -DBENCH_BIN=<bench binary> -DWORK_DIR=<scratch dir> \
#         [-DBENCH_ARGS="<space-separated argv>"] \
#         [-DBENCH_ENV="<space-separated VAR=VAL pairs>"] \
#         [-DROW_NEEDLE=<first cell of the first expected row>] \
#         [-DCELL_NEEDLES="<space-separated first-cell prefixes, each of \
#          which some row must start with>"] \
#         [-DHEADER_NEEDLES="<space-separated column names, each of which \
#          some table must carry>"] \
#         -P check_bench_artifact.cmake
# BENCH_ARGS/BENCH_ENV are space-separated, not ;-lists: semicolons do not
# survive the add_test -> -D -> re-expansion round trip intact.
#
# Runs the bench with BGPSIM_JSON pointed at WORK_DIR (BENCH_ARGS/BENCH_ENV
# shrink slow benches to one fast data point), then validates the dropped
# BENCH_<bench>.json against the bgpsim-bench-1 schema: the schema/bench
# identity fields, a tables array, and at least one table with a title,
# headers, and a result row (whose first cell is ROW_NEEDLE when given).
if(NOT BENCH_BIN OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DBENCH_BIN=... -DWORK_DIR=... -P check_bench_artifact.cmake")
endif()

get_filename_component(bench_name "${BENCH_BIN}" NAME)
set(artifact "${WORK_DIR}/BENCH_${bench_name}.json")

file(REMOVE "${artifact}")
file(MAKE_DIRECTORY "${WORK_DIR}")
separate_arguments(bench_env UNIX_COMMAND "${BENCH_ENV}")
separate_arguments(bench_args UNIX_COMMAND "${BENCH_ARGS}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env BGPSIM_JSON=${WORK_DIR} ${bench_env}
          ${BENCH_BIN} ${bench_args}
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE run_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${bench_name} exited with ${rc}:\n${run_err}")
endif()

if(NOT EXISTS "${artifact}")
  message(FATAL_ERROR "bench did not drop ${artifact}")
endif()
file(READ "${artifact}" content)

# NB: needles stay foreach *arguments*, never a list variable — the
# unbalanced "[" inside them would make CMake's list splitting swallow the
# ";" separators and merge the elements.
macro(require_needle needle)
  string(FIND "${content}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR
      "artifact ${artifact} fails bgpsim-bench-1 validation: missing ${needle}\n${content}")
  endif()
endmacro()

foreach(needle
    "{\"schema\": \"bgpsim-bench-1\""
    "\"bench\": \"${bench_name}\""
    "\"tables\": ["
    "\"title\": "
    "\"headers\": "
    "\"rows\": [[")
  require_needle("${needle}")
endforeach()
if(ROW_NEEDLE)
  require_needle("\"rows\": [[\"${ROW_NEEDLE}\"")
endif()
# Each CELL_NEEDLES element must lead some row's first cell (the "[ is
# prepended here, so the list elements themselves stay bracket-free and
# survive CMake list splitting).
if(CELL_NEEDLES)
  separate_arguments(cell_needles UNIX_COMMAND "${CELL_NEEDLES}")
  foreach(cell IN LISTS cell_needles)
    require_needle("[\"${cell}")
  endforeach()
endif()

# Each HEADER_NEEDLES element must be a column some table carries (names
# must not contain spaces).
if(HEADER_NEEDLES)
  separate_arguments(header_needles UNIX_COMMAND "${HEADER_NEEDLES}")
  foreach(column IN LISTS header_needles)
    require_needle("\"${column}\"")
  endforeach()
endif()

message(STATUS "bench artifact OK: ${artifact}")
