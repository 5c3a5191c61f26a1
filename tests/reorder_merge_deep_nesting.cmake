# reorder-merge given one 120 KB line of nested brackets must fail cleanly:
# exit 1 with a message naming the malformed line, not a stack overflow.
#
#   cmake -DMERGE=<path to reorder-merge> -DWORK_DIR=<scratch dir> \
#         -P tests/reorder_merge_deep_nesting.cmake
if(NOT MERGE OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DMERGE=<reorder-merge> -DWORK_DIR=<dir> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

set(input "${WORK_DIR}/reorder_merge_deep_nesting.jsonl")
string(REPEAT "[" 120000 brackets)
file(WRITE "${input}" "${brackets}\n")
execute_process(COMMAND "${MERGE}" "${input}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
file(REMOVE "${input}")

if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "reorder-merge exited with '${rc}', expected 1; stderr: ${err}")
endif()
if(NOT err MATCHES "reorder-merge: read_jsonl: malformed JSON on line 1")
  message(FATAL_ERROR "reorder-merge gave no malformed-line message; stderr: ${err}")
endif()
