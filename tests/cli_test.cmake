# One program case for ctest (a tool, a figure harness or an example):
# writes a four-line names file, runs TOOL with ARGS ('|'-separated;
# @INPUT@ names the file), and checks the exit code against EXPECT_EXIT
# and, when given, stdout against EXPECT_STDOUT and stderr against
# EXPECT_STDERR (regular expressions). With STDOUT_FILE the tool writes its
# stdout to that file instead (for example /dev/full), and EXPECT_STDOUT
# has nothing to match. A program still running after 30 s fails the case.
#
#   cmake -DTOOL=build/tsj_join -DWORK_DIR=build/cli -DARGS='--input|@INPUT@'
#         -DEXPECT_EXIT=0 -P tests/cli_test.cmake

file(MAKE_DIRECTORY "${WORK_DIR}")
set(input "${WORK_DIR}/names.txt")
file(WRITE "${input}" "barak obama\nobama barak\nchan kalan\nchank alan\n")

string(REPLACE "@INPUT@" "${input}" args "${ARGS}")
string(REPLACE "|" ";" args "${args}")
if(DEFINED STDOUT_FILE)
  set(stdout_sink OUTPUT_FILE "${STDOUT_FILE}")
else()
  set(stdout_sink OUTPUT_VARIABLE out)
endif()
execute_process(COMMAND "${TOOL}" ${args}
                RESULT_VARIABLE code
                ${stdout_sink}
                ERROR_VARIABLE err
                TIMEOUT 30)

if(NOT code STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "${TOOL} ${args}: exit '${code}', expected "
                      "${EXPECT_EXIT}\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED EXPECT_STDOUT AND NOT out MATCHES "${EXPECT_STDOUT}")
  message(FATAL_ERROR "${TOOL} ${args}: stdout does not match "
                      "'${EXPECT_STDOUT}':\n${out}")
endif()
if(DEFINED EXPECT_STDERR AND NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "${TOOL} ${args}: stderr does not match "
                      "'${EXPECT_STDERR}':\n${err}")
endif()
