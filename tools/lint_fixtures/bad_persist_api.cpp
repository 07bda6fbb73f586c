// Fixture: hand-built registry records outside src/core/.
namespace fixture {

// Naming the raw record type outside src/core/ is flagged: records are
// minted by the Cluster facade, never by hand.
struct PersistRecord {  // LINT-EXPECT: deprecated-persist-api
  int live_machine = -1;
};

}  // namespace fixture
