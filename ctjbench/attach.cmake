# Attach the benchmark package to the repository's root build. Pass it as
#
#   cmake -S . -B <build> -DCMAKE_PROJECT_ctj_INCLUDE=<repo>/ctjbench/attach.cmake
#
# CMake includes it at the end of the root project(ctj) call; it defers
# including this directory's CMakeLists.txt until the root CMakeLists.txt has
# finished, so the benchmark compiles with exactly the flags, libraries and
# git-revision stamp the root build defines, without the root build knowing
# about it. (Deferred calls may not add subdirectories, hence include().)
cmake_language(EVAL CODE
  "cmake_language(DEFER DIRECTORY [[${CMAKE_SOURCE_DIR}]]
     CALL include [[${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt]])")
