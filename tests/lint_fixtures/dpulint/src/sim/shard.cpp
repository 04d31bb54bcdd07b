// dpulint self-test fixture: the path the deleted sharded scheduler used to
// occupy. It was once exempt from the thread rule; now no file is. Never
// compiled — only lexed.
#include <thread>  // expect: thread

namespace fixture {

void spawn_worker() {
  std::thread worker([] {});  // expect: thread
  worker.join();
}

}  // namespace fixture
