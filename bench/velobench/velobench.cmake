# velobench: the repository benchmark (see README.md).
#
# velobench is built by the repository's own build, so it measures exactly
# the code generation the repository ships (build type, flags, assertions).
# run.py configures the root project with
#
#   cmake -S . -B <dir> -DCMAKE_PROJECT_velodrome_INCLUDE=<this file>
#
# The root project() call includes this file before the root CMakeLists.txt
# has set anything up, so the first inclusion only schedules a second one
# for the end of the root directory, where the targets are defined with the
# root's settings in force. (A deferred call's arguments are evaluated when
# it runs, hence the variable.)
if(NOT VELOBENCH_DIR)
  set(VELOBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")
  cmake_language(DEFER CALL include "${VELOBENCH_DIR}/velobench.cmake")
  return()
endif()

add_executable(velobench
  ${VELOBENCH_DIR}/velobench.cpp
  ${VELOBENCH_DIR}/Harness.cpp
  ${VELOBENCH_DIR}/Inputs.cpp
  ${VELOBENCH_DIR}/Layers.cpp
  ${VELOBENCH_DIR}/ServeLoad.cpp
)
target_link_libraries(velobench PRIVATE
  velo_core velo_aero velo_analysis velo_report velo_parallel
  velo_staticpass velo_serve velo_events velo_support Threads::Threads)
# The tools velobench runs as subprocesses are built with it.
add_dependencies(velobench velodrome-check velodrome-serve velodrome-run)
